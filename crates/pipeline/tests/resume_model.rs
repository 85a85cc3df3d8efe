//! Kill/resume integration test for the *model-state* half of resumable
//! streaming: an interrupted `train_stream_resumable` run wired through a
//! [`TrainCheckpoint`] must continue from the checkpointed weights and
//! optimiser state (loss continuity), not from fresh initialisation: a
//! resumed data stream under re-initialised weights would silently skip
//! the epochs it had trained.

use pop_core::{Pix2Pix, StreamCheckpoint};
use pop_pipeline::{scenario, EpochPrefetcher, PipelineOptions, ScenarioSpec, TrainCheckpoint};

fn tiny() -> ScenarioSpec {
    ScenarioSpec {
        pairs_per_design: 2,
        ..scenario::by_name("smoke").unwrap()
    }
}

#[test]
fn killed_training_resumes_from_checkpointed_weights_not_fresh() {
    let spec = tiny();
    let config = spec.config();
    let dir = std::env::temp_dir().join("pop_resume_model_test");
    let _ = std::fs::remove_dir_all(&dir);
    let mut checkpoint = TrainCheckpoint::new(&dir);

    // A fresh checkpoint restores nothing.
    assert!(checkpoint.restore(&config).unwrap().is_none());

    // --- Interrupted run: train 3 of 5 epochs, then "crash" (drop the
    // prefetcher mid-stream and forget the model).
    let total_epochs = 5;
    let trained_before_kill = 3;
    let mut model = Pix2Pix::new(&config, 7).unwrap();
    let mut first = EpochPrefetcher::start(
        vec![spec.clone()],
        PipelineOptions::with_workers(2),
        checkpoint.completed_epochs()..total_epochs,
        1,
    );
    let head: Vec<_> = (&mut first)
        .take(trained_before_kill)
        .collect::<Result<_, _>>()
        .unwrap();
    let history_a = model.train_stream_resumable(head, &mut checkpoint);
    assert_eq!(history_a.l1.len(), trained_before_kill);
    // Pin the killed model's behaviour for the restore check below.
    let probe = pop_nn::Tensor::randn([1, config.input_channels(), 16, 16], 0.0, 0.5, 99);
    let forecast_at_kill = model.forecast(&probe);
    drop(first);
    drop(model); // the "kill": the in-memory model is gone

    // --- Resume: the checkpoint rebuilds the killed model exactly…
    assert_eq!(checkpoint.completed_epochs(), trained_before_kill);
    let mut resumed = checkpoint
        .restore(&config)
        .unwrap()
        .expect("a checkpoint must exist after trained epochs");
    assert_eq!(
        resumed.forecast(&probe),
        forecast_at_kill,
        "restored weights must match the killed model bit for bit"
    );
    assert!(
        resumed.optimizer_steps().0 > 0,
        "optimiser state must resume, not restart"
    );

    // …and training continues over exactly the remaining epochs.
    let rest = EpochPrefetcher::start(
        vec![spec.clone()],
        PipelineOptions::with_workers(2),
        checkpoint.completed_epochs()..total_epochs,
        1,
    );
    let tail: Vec<_> = rest.collect::<Result<_, _>>().unwrap();
    assert_eq!(tail.len(), total_epochs - trained_before_kill);
    let history_b = resumed.train_stream_resumable(tail.clone(), &mut checkpoint);
    assert_eq!(checkpoint.completed_epochs(), total_epochs);

    // --- Loss continuity: the resumed model picks up where the killed run
    // left off. A *fresh* model on the same remaining epochs sits near its
    // initialisation loss; the resumed one must be far below it, and close
    // to the interrupted run's level.
    let mut fresh = Pix2Pix::new(&config, 7).unwrap();
    let history_fresh = fresh.train_stream(tail);
    let resumed_l1 = history_b.l1[0];
    let fresh_l1 = history_fresh.l1[0];
    let killed_l1 = *history_a.l1.last().unwrap();
    assert!(
        resumed_l1 < fresh_l1,
        "resumed first-epoch L1 {resumed_l1} must undercut a fresh model's {fresh_l1}"
    );
    assert!(
        resumed_l1 < killed_l1 * 1.5 + 0.05,
        "resumed L1 {resumed_l1} must continue the killed run's level {killed_l1}, \
         not jump back toward init ({fresh_l1})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
