"""Fig 13: replication threshold sweep -> runtime and memory."""

from repro.experiments import fig13_replication_sweep


def test_fig13_replication_sweep(record_experiment):
    figure = record_experiment("fig13", fig13_replication_sweep.campaign)
    fractions, runtimes = figure.series["encryption.runtime"]
    # 0 % replication serializes: far slower than the key-only point.
    assert runtimes[0] > 2 * min(runtimes)
    # The encryption sweet spot replicates (only) the tiny key.
    best_fraction = fractions[runtimes.index(min(runtimes))]
    assert best_fraction < 5.0
    # Full replication triples the replicated memory footprint.
    mem_fracs, memory = figure.series["encryption.memory_kib"]
    assert memory[-1] > 3 * memory[0]
