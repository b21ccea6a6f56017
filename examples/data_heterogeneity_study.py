#!/usr/bin/env python3
"""Data-heterogeneity study (paper Figures 6 and 11).

Sweeps the four data distributions of the paper — Ideal IID and Non-IID(50/75/100 %) — and
shows how random participant selection degrades (and eventually fails to converge) while
AutoFL keeps selecting devices with useful data.

The whole study is one declarative grid (distribution x policy) executed by the
:class:`BatchRunner`; re-running the script serves every point from the spec-hash cache.

Run with:  python examples/data_heterogeneity_study.py
"""

from repro import BatchRunner, ExperimentSpec, ScenarioSpec, Sweep, open_store
from repro.experiments.reporting import format_table

DISTRIBUTIONS = ("iid", "non_iid_50", "non_iid_75", "non_iid_100")


def main() -> None:
    base = ExperimentSpec(
        scenario=ScenarioSpec(
            workload="cnn-mnist",
            setting="S3",
            num_devices=200,
            max_rounds=300,
            seed=4,
        ),
        policy="fedavg-random",
    )
    sweep = Sweep(
        base,
        data_distribution=DISTRIBUTIONS,
        policy=("fedavg-random", "autofl"),
    )
    runner = BatchRunner(store=open_store(".repro-results/data-heterogeneity.sqlite"))
    report = runner.run(sweep)
    by_point = {
        (result.spec.scenario.data_distribution, result.spec.policy): result
        for result in report.results
    }

    rows_out = []
    for distribution in DISTRIBUTIONS:
        random_result = by_point[(distribution, "fedavg-random")]
        autofl_result = by_point[(distribution, "autofl")]
        rows_out.append(
            [
                distribution,
                random_result.convergence_rate > 0,
                random_result.mean_final_accuracy,
                autofl_result.convergence_rate > 0,
                autofl_result.mean_final_accuracy,
                random_result.mean_global_energy_j / autofl_result.mean_global_energy_j,
            ]
        )
    headers = [
        "distribution",
        "random converged",
        "random accuracy",
        "autofl converged",
        "autofl accuracy",
        "autofl PPW gain",
    ]
    print("Impact of data heterogeneity on FedAvg-Random vs AutoFL\n")
    print(format_table(headers, rows_out))
    print(
        f"\n({report.cache_hits} of {report.total} grid points served from the result cache)"
    )


if __name__ == "__main__":
    main()
