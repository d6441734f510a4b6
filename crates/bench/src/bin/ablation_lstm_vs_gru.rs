//! Ablation — LSTM vs GRU recurrent cell at the same width and training
//! budget.
//!
//! Section VI's related work is built on "LSTM or LSTM-variants"; GRU is
//! the dominant variant. This experiment trains both cells on three
//! workload families and compares test MAPE and parameter counts (GRU has
//! 3/4 of the LSTM's recurrent parameters at equal width).

use ld_api::{metrics, MinMaxScaler, Partition};
use ld_bench::render::print_table;
use ld_bench::scale::ExperimentScale;
use ld_nn::{
    make_windows, Adam, ForecasterConfig, GruForecaster, LstmForecaster, Sample, TrainOptions,
    Trainer,
};
use ld_traces::{TraceConfig, WorkloadKind};

fn run_model<M: ld_nn::trainer::Trainable>(
    model: &mut M,
    values: &[f64],
    partition: &Partition,
    n: usize,
    epochs: usize,
) -> f64 {
    let scaler = MinMaxScaler::fit(partition.train(values));
    let normalized = scaler.transform_all(values);
    let train = make_windows(&normalized[..partition.train_end], n);
    let val: Vec<Sample> = (partition.train_end.max(n)..partition.val_end)
        .map(|i| Sample::new(normalized[i - n..i].to_vec(), normalized[i]))
        .collect();
    let trainer = Trainer::new(TrainOptions {
        batch_size: 32,
        max_epochs: epochs,
        patience: 6,
        ..TrainOptions::default()
    });
    let mut opt = Adam::with_lr(5e-3);
    trainer.fit(model, &mut opt, &train, &val);
    let (preds, actuals): (Vec<f64>, Vec<f64>) = (partition.val_end.max(n)..values.len())
        .map(|i| {
            (
                scaler.inverse(model.predict(&normalized[i - n..i])).max(0.0),
                values[i],
            )
        })
        .unzip();
    metrics::mape(&preds, &actuals)
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!("=== Ablation: LSTM vs GRU recurrent cell (equal width & budget) ===");
    println!("(scale: {scale:?})\n");

    let epochs = scale.budget().max_epochs;
    let (n, s) = (16usize, 8usize);
    let mut rows = Vec::new();
    for (kind, interval) in [
        (WorkloadKind::Wikipedia, 30u32),
        (WorkloadKind::Google, 30),
        (WorkloadKind::Azure, 60),
    ] {
        let series = scale.cap_series(
            &TraceConfig {
                kind,
                interval_mins: interval,
            }
            .build(0),
        );
        let partition = Partition::paper_default(series.len());

        let config = ForecasterConfig {
            history_len: n,
            hidden_size: s,
            num_layers: 1,
            seed: 0,
        };
        let mut lstm = LstmForecaster::new(config);
        let mut gru = GruForecaster::new(config);
        eprintln!(
            "[ablation] {}: LSTM {} params, GRU {} params",
            series.name,
            lstm.param_count(),
            gru.param_count()
        );
        let lstm_mape = run_model(&mut lstm, &series.values, &partition, n, epochs);
        let gru_mape = run_model(&mut gru, &series.values, &partition, n, epochs);
        rows.push(vec![
            series.name.clone(),
            format!("{lstm_mape:.2}"),
            format!("{gru_mape:.2}"),
        ]);
    }
    print_table(&["workload", "LSTM MAPE %", "GRU MAPE %"], &rows);
    println!(
        "\nExpected shape: the two cells are competitive at this scale; GRU gets\n\
         there with 25% fewer recurrent parameters. The paper's LSTM choice is\n\
         conventional rather than critical — exactly why its framework tunes\n\
         hyperparameters instead of hand-picking architectures."
    );
}
