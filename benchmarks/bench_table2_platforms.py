"""Table II — the experiment platforms."""

from conftest import print_table

from repro.arch.platforms import BROADWELL, SKYLAKE, TABLE2_HEADER


def test_table2_platforms(benchmark, claim):
    rows = benchmark.pedantic(
        lambda: [SKYLAKE.row(), BROADWELL.row()], rounds=1, iterations=1
    )
    print_table("Table II: experiment platforms", TABLE2_HEADER, rows)
    claim("Table II", "the Skylake platform", "i7-6700K", rows[0],
          "contains", "i7-6700K")
    claim("Table II", "the Broadwell platform", "E5-2697A v4", rows[1],
          "contains", "E5-2697A v4")
