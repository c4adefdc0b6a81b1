"""Table I — the BayesSuite workload summary."""

from conftest import print_table

from repro.suite import load_workload, table_one


def build_rows():
    rows = []
    for info in table_one():
        rows.append(
            f"{info.name:<10s} {info.model_family:<32s} "
            f"{info.application[:48]:<48s} {info.default_iterations:>6d}"
        )
    return rows


def test_table1_workload_summary(benchmark, claim):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    header = f"{'Name':<10s} {'Model':<32s} {'Application':<48s} {'Iters':>6s}"
    print_table("Table I: BayesSuite workloads", header, rows)
    claim("Table I", "BayesSuite workloads", "10", len(rows), "==", 10)


def test_table1_workloads_instantiate(benchmark):
    """Loading a workload (data generation included) is cheap."""
    model = benchmark(lambda: load_workload("12cities", scale=0.25))
    assert model.dim > 0
