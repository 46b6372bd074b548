"""Pinned data-path accounting of the EMR job engine.

Each scheme runs a small seeded image-processing workload with two
strikes: a corrupted pointer on a mid-job role, so the fetch of that
role raises ``SegmentationFault`` after the job's earlier roles were
read, and a bit flip in a resident L2 line. Every counter the run
leaves behind -- ``RunStats``, the cache totals, the DRAM stats, the
simulated clock and the committed outputs -- is compared against
literals, on an ECC-DRAM machine (DRAM frontier) and on a non-ECC one
(storage frontier). The literals pin the partial line and disk
accounting of the failure path, which any rework of how a job fetches
or flushes must reproduce exactly.

Regenerate the table with ``python tests/test_datapath_pin.py`` (with
``src`` on ``PYTHONPATH``) only when a change is meant to move it.
"""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.emr import EmrConfig, EmrRuntime, sequential_3mr, single_run
from repro.core.emr.runtime import EmrHooks
from repro.sim import Machine
from repro.workloads import ImageProcessingWorkload


class _Strikes(EmrHooks):
    """A pointer strike before the 4th job, an L2 flip before the 7th."""

    def __init__(self, machine):
        self.machine = machine
        self.jobs = 0
        self.fired = []

    def before_job(self, runtime, job):
        self.jobs += 1
        if self.jobs == 4:
            offset, length = job.pointers["row3"]
            job.pointers["row3"] = (offset + (1 << 27), length)
            self.fired.append(f"pointer ds={job.dataset_index}")
        if self.jobs == 7:
            resident = self.machine.caches.l2.resident_lines
            if resident:
                line = resident[len(resident) // 2]
                self.machine.caches.l2.flip_bit(line, 3, 2)
                self.fired.append(f"l2 line {line}")


def _run(scheme, ecc):
    machine = Machine.rpi_zero2w(seed=3) if ecc else Machine.snapdragon801(seed=3)
    workload = ImageProcessingWorkload(map_size=32, template_size=8, stride=8)
    spec = workload.build(np.random.default_rng(11))
    hooks = _Strikes(machine)
    # "emr" replicates only the template, so map rows are shared lines
    # flushed after every job; "emr-all" replicates every region (the
    # default threshold), so the corrupted pointer reads past its copy.
    threshold = 0.01 if scheme == "emr-all" else 0.5
    config = EmrConfig(replication_threshold=threshold, raise_on_inconclusive=False)
    if scheme.startswith("emr"):
        result = EmrRuntime(machine, workload, config=config, hooks=hooks, seed=5).run(
            spec=spec
        )
    elif scheme == "3mr":
        result = sequential_3mr(
            machine, workload, spec=spec, config=config, hooks=hooks, seed=5
        )
    else:
        result = single_run(
            machine, workload, spec=spec, config=config, hooks=hooks, seed=5
        )
    outputs = hashlib.sha256()
    for output in result.outputs:
        outputs.update(len(output).to_bytes(4, "little") + output)
    return {
        "fired": hooks.fired,
        "stats": asdict(result.stats),
        "caches": asdict(machine.caches.total_stats()),
        "memory": asdict(machine.memory.stats),
        "clock": repr(machine.clock.now),
        "outputs": outputs.hexdigest(),
    }


CASES = [
    (scheme, ecc)
    for ecc in (True, False)
    for scheme in ("emr", "emr-all", "3mr", "none")
]

# Recorded before the job engine fetched and flushed per job.
PINNED = {('emr', True): {'fired': ['pointer ds=8', 'l2 line 18'],
                 'stats': {'jobs': 47,
                           'jobsets': 12,
                           'conflict_edges': 24,
                           'replicated_bytes': 64,
                           'memory_bytes': 1280,
                           'flushed_lines': 374,
                           'l1_hits': 235,
                           'l2_hits': 2,
                           'memory_fills': 186,
                           'vote_corrections': 1,
                           'unanimous_votes': 15,
                           'detected_faults': ['ds=8 exec=2: job ds=8 exec=2: '
                                               'corrupted pointer row3=(134218336, 8)'],
                           'disk_ios': 0},
                 'caches': {'hits': 238,
                            'misses': 380,
                            'evictions': 0,
                            'flushed_lines': 374,
                            'injected_flips': 1,
                            'corrected_errors': 0},
                 'memory': {'reads': 284,
                            'writes': 52,
                            'bytes_read': 13476,
                            'bytes_written': 2596,
                            'corrected_errors': 0,
                            'detected_errors': 0,
                            'injected_flips': 0,
                            'corrected_addresses': []},
                 'clock': '0.0009532910857142858',
                 'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f'},
 ('emr-all', True): {'fired': ['pointer ds=9', 'l2 line 179'],
                     'stats': {'jobs': 47,
                               'jobsets': 3,
                               'conflict_edges': 0,
                               'replicated_bytes': 1088,
                               'memory_bytes': 4352,
                               'flushed_lines': 0,
                               'l1_hits': 44,
                               'l2_hits': 0,
                               'memory_fills': 379,
                               'vote_corrections': 1,
                               'unanimous_votes': 15,
                               'detected_faults': ['ds=9 exec=0: dram: access '
                                                   '[134233600, 50331648) outside '
                                                   'device of size 50331648'],
                               'disk_ios': 0},
                     'caches': {'hits': 45,
                                'misses': 766,
                                'evictions': 0,
                                'flushed_lines': 0,
                                'injected_flips': 1,
                                'corrected_errors': 0},
                     'memory': {'reads': 605,
                                'writes': 436,
                                'bytes_read': 26852,
                                'bytes_written': 5668,
                                'corrected_errors': 0,
                                'detected_errors': 0,
                                'injected_flips': 0,
                                'corrected_addresses': []},
                     'clock': '0.0009059342380952554',
                     'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f'},
 ('3mr', True): {'fired': ['pointer ds=3', 'l2 line 3'],
                 'stats': {'jobs': 47,
                           'jobsets': 0,
                           'conflict_edges': 0,
                           'replicated_bytes': 0,
                           'memory_bytes': 1088,
                           'flushed_lines': 68,
                           'l1_hits': 372,
                           'l2_hits': 0,
                           'memory_fills': 51,
                           'vote_corrections': 1,
                           'unanimous_votes': 15,
                           'detected_faults': ['ds=3 exec=0: job ds=3 exec=0: '
                                               'corrupted pointer row3=(134217848, 8)'],
                           'disk_ios': 0},
                 'caches': {'hits': 376,
                            'misses': 102,
                            'evictions': 0,
                            'flushed_lines': 68,
                            'injected_flips': 1,
                            'corrected_errors': 0},
                 'memory': {'reads': 145,
                            'writes': 53,
                            'bytes_read': 4580,
                            'bytes_written': 4580,
                            'corrected_errors': 0,
                            'detected_errors': 0,
                            'injected_flips': 0,
                            'corrected_addresses': []},
                 'clock': '0.0026030735523809513',
                 'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f'},
 ('none', True): {'fired': ['pointer ds=3', 'l2 line 3'],
                  'stats': {'jobs': 15,
                            'jobsets': 0,
                            'conflict_edges': 0,
                            'replicated_bytes': 0,
                            'memory_bytes': 1088,
                            'flushed_lines': 0,
                            'l1_hits': 118,
                            'l2_hits': 0,
                            'memory_fills': 17,
                            'vote_corrections': 0,
                            'unanimous_votes': 0,
                            'detected_faults': ['ds=3 exec=0: job ds=3 exec=0: '
                                                'corrupted pointer row3=(134217848, '
                                                '8)'],
                            'disk_ios': 0},
                  'caches': {'hits': 122,
                             'misses': 34,
                             'evictions': 0,
                             'flushed_lines': 0,
                             'injected_flips': 1,
                             'corrected_errors': 0},
                  'memory': {'reads': 47,
                             'writes': 17,
                             'bytes_read': 1508,
                             'bytes_written': 1508,
                             'corrected_errors': 0,
                             'detected_errors': 0,
                             'injected_flips': 0,
                             'corrected_addresses': []},
                  'clock': '0.0008673936285714282',
                  'outputs': '835e78351190322e73ed901e801c150582493e12f3e4ed8cfafc9c6489eca624'},
 ('emr', False): {'fired': ['pointer ds=8'],
                  'stats': {'jobs': 47,
                            'jobsets': 12,
                            'conflict_edges': 24,
                            'replicated_bytes': 64,
                            'memory_bytes': 1280,
                            'flushed_lines': 0,
                            'l1_hits': 0,
                            'l2_hits': 0,
                            'memory_fills': 0,
                            'vote_corrections': 1,
                            'unanimous_votes': 15,
                            'detected_faults': ['ds=8 exec=2: job ds=8 exec=2: '
                                                'corrupted pointer (134218336, 8)'],
                            'disk_ios': 379},
                  'caches': {'hits': 0,
                             'misses': 0,
                             'evictions': 0,
                             'flushed_lines': 0,
                             'injected_flips': 0,
                             'corrected_errors': 0},
                  'memory': {'reads': 0,
                             'writes': 0,
                             'bytes_read': 0,
                             'bytes_written': 0,
                             'corrected_errors': 0,
                             'detected_errors': 0,
                             'injected_flips': 0,
                             'corrected_addresses': []},
                  'clock': '0.16255705279999988',
                  'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f'},
 ('emr-all', False): {'fired': ['pointer ds=9'],
                      'stats': {'jobs': 47,
                                'jobsets': 3,
                                'conflict_edges': 0,
                                'replicated_bytes': 1088,
                                'memory_bytes': 4352,
                                'flushed_lines': 0,
                                'l1_hits': 0,
                                'l2_hits': 0,
                                'memory_fills': 0,
                                'vote_corrections': 1,
                                'unanimous_votes': 15,
                                'detected_faults': ['ds=9 exec=0: job ds=9 exec=0: '
                                                    'corrupted pointer '
                                                    'row3=(134218344, 8)'],
                                'disk_ios': 0},
                      'caches': {'hits': 0,
                                 'misses': 0,
                                 'evictions': 0,
                                 'flushed_lines': 0,
                                 'injected_flips': 0,
                                 'corrected_errors': 0},
                      'memory': {'reads': 0,
                                 'writes': 0,
                                 'bytes_read': 0,
                                 'bytes_written': 0,
                                 'corrected_errors': 0,
                                 'detected_errors': 0,
                                 'injected_flips': 0,
                                 'corrected_addresses': []},
                      'clock': '0.1714968933333327',
                      'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f'},
 ('3mr', False): {'fired': ['pointer ds=3'],
                  'stats': {'jobs': 47,
                            'jobsets': 0,
                            'conflict_edges': 0,
                            'replicated_bytes': 0,
                            'memory_bytes': 1088,
                            'flushed_lines': 0,
                            'l1_hits': 0,
                            'l2_hits': 0,
                            'memory_fills': 0,
                            'vote_corrections': 1,
                            'unanimous_votes': 15,
                            'detected_faults': ['ds=3 exec=0: job ds=3 exec=0: '
                                                'corrupted pointer (134217848, 8)'],
                            'disk_ios': 382},
                  'caches': {'hits': 0,
                             'misses': 0,
                             'evictions': 0,
                             'flushed_lines': 0,
                             'injected_flips': 0,
                             'corrected_errors': 0},
                  'memory': {'reads': 0,
                             'writes': 0,
                             'bytes_read': 0,
                             'bytes_written': 0,
                             'corrected_errors': 0,
                             'detected_errors': 0,
                             'injected_flips': 0,
                             'corrected_addresses': []},
                  'clock': '0.18141786943333332',
                  'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f'},
 ('none', False): {'fired': ['pointer ds=3'],
                   'stats': {'jobs': 15,
                             'jobsets': 0,
                             'conflict_edges': 0,
                             'replicated_bytes': 0,
                             'memory_bytes': 1088,
                             'flushed_lines': 0,
                             'l1_hits': 0,
                             'l2_hits': 0,
                             'memory_fills': 0,
                             'vote_corrections': 0,
                             'unanimous_votes': 0,
                             'detected_faults': ['ds=3 exec=0: job ds=3 exec=0: '
                                                 'corrupted pointer (134217848, 8)'],
                             'disk_ios': 124},
                   'caches': {'hits': 0,
                              'misses': 0,
                              'evictions': 0,
                              'flushed_lines': 0,
                              'injected_flips': 0,
                              'corrected_errors': 0},
                   'memory': {'reads': 0,
                              'writes': 0,
                              'bytes_read': 0,
                              'bytes_written': 0,
                              'corrected_errors': 0,
                              'detected_errors': 0,
                              'injected_flips': 0,
                              'corrected_addresses': []},
                   'clock': '0.058785622499999995',
                   'outputs': '835e78351190322e73ed901e801c150582493e12f3e4ed8cfafc9c6489eca624'}}


@pytest.mark.parametrize(
    "scheme,ecc", CASES, ids=[f"{s}-{'ecc' if e else 'noecc'}" for s, e in CASES]
)
def test_data_path_accounting_is_pinned(scheme, ecc):
    assert _run(scheme, ecc) == PINNED[(scheme, ecc)]


if __name__ == "__main__":
    import pprint

    pprint.pprint({case: _run(*case) for case in CASES}, width=88, sort_dicts=False)
