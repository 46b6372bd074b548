"""Pinned data-path accounting of the EMR job engine.

Each scheme runs a small seeded image-processing workload with two
strikes: a corrupted pointer on a mid-job role, so the fetch of that
role raises ``SegmentationFault`` after the job's earlier roles were
read, and a bit flip in a resident L2 line. Every counter the run
leaves behind -- ``RunStats``, the cache totals, the DRAM stats, the
simulated clock, the committed outputs, the time breakdown (keys in
order), the wall time, the energy report, and a digest of the trace
records and metrics the run emits -- is compared against literals, on
an ECC-DRAM machine (DRAM frontier) and on a non-ECC one (storage
frontier). The literals pin the partial line and disk accounting of
the failure path, which any rework of how a job fetches or flushes
must reproduce exactly, and the set-up, vote, commit and closing
accounting every scheme shares.

Regenerate the table with ``python tests/test_datapath_pin.py`` (with
``src`` on ``PYTHONPATH``) only when a change is meant to move it.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.emr import (
    EmrConfig,
    EmrRuntime,
    checksum_protected_run,
    sequential_3mr,
    single_run,
    unprotected_parallel_3mr,
)
from repro.core.emr.runtime import EmrHooks
from repro.obs import MetricsRegistry, Observability, TraceRecorder
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


#: The baseline entry points, all called with the same keywords.
SCHEMES = {
    "3mr": sequential_3mr,
    "none": single_run,
    "unprotected": unprotected_parallel_3mr,
    "checksum": checksum_protected_run,
}


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
    obs = Observability(
        tracer=TraceRecorder(ring_size=None), metrics=MetricsRegistry()
    )
    if scheme.startswith("emr"):
        result = EmrRuntime(
            machine, workload, config=config, hooks=hooks, seed=5, obs=obs
        ).run(spec=spec)
    else:
        result = SCHEMES[scheme](
            machine, workload, spec=spec, config=config, hooks=hooks, seed=5,
            obs=obs,
        )
    outputs = hashlib.sha256()
    for output in result.outputs:
        outputs.update(len(output).to_bytes(4, "little") + output)
    trace = hashlib.sha256()
    for record in obs.tracer.records():
        trace.update(record.json_line().encode() + b"\n")
    trace.update(json.dumps(obs.metrics.snapshot(), sort_keys=True).encode())
    return {
        "fired": hooks.fired,
        "stats": asdict(result.stats),
        "caches": asdict(machine.caches.total_stats()),
        "memory": asdict(machine.memory.stats),
        "clock": repr(machine.clock.now),
        "outputs": outputs.hexdigest(),
        "breakdown": list(result.breakdown.items()),
        "wall_seconds": repr(result.wall_seconds),
        "energy": asdict(result.energy),
        "obs": trace.hexdigest(),
    }


CASES = [
    (scheme, ecc)
    for ecc in (True, False)
    for scheme in ("emr", "emr-all", "3mr", "none", "unprotected", "checksum")
]

# Recorded before the job engine fetched and flushed per job; the
# breakdown, wall time, energy and obs keys and the "unprotected" and
# "checksum" cases before the five schemes shared one run scaffold;
# the "checksum" cases again when that scheme's jobs moved onto the
# shared job engine.
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
                 'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f',
                 'breakdown': [('disk_read', 0.0008272),
                               ('allocation', 6.323199999999999e-06),
                               ('compute', 6.218571428571429e-05),
                               ('cache_clear', 8.228571428571431e-06),
                               ('orchestration', 4.93536e-05)],
                 'wall_seconds': '0.0009532910857142858',
                 'energy': {'idle_joules': 0.00810297422857143,
                            'core_joules': 0.0004721199523809523,
                            'dram_joules': 8.839600000000001e-06,
                            'disk_joules': 0.0},
                 'obs': 'bb8fdb9028cecfbda64796785ff91eb3513b21af60ea5f55ab6962a0b91dc2ee'},
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
                     'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f',
                     'breakdown': [('disk_read', 0.0008272),
                                   ('allocation', 1.4310399999999952e-05),
                                   ('compute', 5.107023809523809e-05),
                                   ('cache_clear', 0.0),
                                   ('orchestration', 1.3353599999999995e-05)],
                     'wall_seconds': '0.0009059342380952554',
                     'energy': {'idle_joules': 0.007700441023809671,
                                'core_joules': 0.00047194509523809506,
                                'dram_joules': 1.7886e-05,
                                'disk_joules': 0.0},
                     'obs': '99a2b82224e10b9a1868ced28aeb87097a6f5b644221c28cd0fffa8904a8bbfa'},
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
                 'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f',
                 'breakdown': [('disk_read', 0.0024816000000000005),
                               ('allocation', 5.8240000000000005e-06),
                               ('compute', 0.00011138166666666658),
                               ('cache_clear', 2.9142857142857142e-06),
                               ('orchestration', 1.3535999999999998e-06)],
                 'wall_seconds': '0.0026030735523809513',
                 'energy': {'idle_joules': 0.022126125195238086,
                            'core_joules': 0.0003786976666666663,
                            'dram_joules': 5.038000000000001e-06,
                            'disk_joules': 0.0},
                 'obs': '13012c0303c5af9fe073dc5d519e50619c2d21e6ac76031487e9bfe33989b47d'},
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
                  'outputs': '835e78351190322e73ed901e801c150582493e12f3e4ed8cfafc9c6489eca624',
                  'breakdown': [('disk_read', 0.0008272),
                                ('allocation', 3.8271999999999995e-06),
                                ('compute', 3.636642857142858e-05),
                                ('cache_clear', 0.0)],
                  'wall_seconds': '0.0008673936285714282',
                  'energy': {'idle_joules': 0.00737284584285714,
                             'core_joules': 0.00012364585714285715,
                             'dram_joules': 1.6588000000000001e-06,
                             'disk_joules': 0.0},
                  'obs': '07f1c93fd1b29985f40b104f394a474bcf8b8f2efae0a8e6fea3c4c9fa50504b'},
 ('unprotected', True): {'fired': ['pointer ds=1', 'l2 line 1'],
                         'stats': {'jobs': 47,
                                   'jobsets': 0,
                                   'conflict_edges': 0,
                                   'replicated_bytes': 0,
                                   'memory_bytes': 1088,
                                   'flushed_lines': 0,
                                   'l1_hits': 372,
                                   'l2_hits': 34,
                                   'memory_fills': 17,
                                   'vote_corrections': 1,
                                   'unanimous_votes': 15,
                                   'detected_faults': ['ds=1 exec=0: job ds=1 exec=0: '
                                                       'corrupted pointer '
                                                       'row3=(134217832, 8)'],
                                   'disk_ios': 0},
                         'caches': {'hits': 410,
                                    'misses': 68,
                                    'evictions': 0,
                                    'flushed_lines': 0,
                                    'injected_flips': 1,
                                    'corrected_errors': 0},
                         'memory': {'reads': 111,
                                    'writes': 49,
                                    'bytes_read': 2404,
                                    'bytes_written': 2404,
                                    'corrected_errors': 0,
                                    'detected_errors': 0,
                                    'injected_flips': 0,
                                    'corrected_addresses': []},
                         'clock': '0.0008707440285714282',
                         'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f',
                         'breakdown': [('disk_read', 0.0008272),
                                       ('allocation', 5.8240000000000005e-06),
                                       ('compute', 3.636642857142858e-05),
                                       ('cache_clear', 0.0),
                                       ('orchestration', 1.3535999999999998e-06)],
                         'wall_seconds': '0.0008707440285714282',
                         'energy': {'idle_joules': 0.00740132424285714,
                                    'core_joules': 0.00036994509523809524,
                                    'dram_joules': 2.6444000000000005e-06,
                                    'disk_joules': 0.0},
                         'obs': 'f401f84c612af8ed99dc97af57dd3f6730850c9eda6dcf50e61b16d4d94c82d6'},
 ('checksum', True): {'fired': ['pointer ds=3', 'l2 line 3'],
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
                                                    'corrupted pointer '
                                                    'row3=(134217848, 8)'],
                                'disk_ios': 0},
                      'caches': {'hits': 122,
                                 'misses': 34,
                                 'evictions': 0,
                                 'flushed_lines': 0,
                                 'injected_flips': 1,
                                 'corrected_errors': 0},
                      'memory': {'reads': 176,
                                 'writes': 17,
                                 'bytes_read': 2596,
                                 'bytes_written': 1508,
                                 'corrected_errors': 0,
                                 'detected_errors': 0,
                                 'injected_flips': 0,
                                 'corrected_addresses': []},
                      'clock': '0.0008781364857142863',
                      'outputs': '835e78351190322e73ed901e801c150582493e12f3e4ed8cfafc9c6489eca624',
                      'breakdown': [('disk_read', 0.0008272),
                                    ('allocation', 3.8271999999999995e-06),
                                    ('checksum', 1.0742857142857146e-05),
                                    ('compute', 3.636642857142858e-05),
                                    ('cache_clear', 0.0)],
                      'wall_seconds': '0.0008781364857142863',
                      'energy': {'idle_joules': 0.007464160128571434,
                                 'core_joules': 0.0001601715714285714,
                                 'dram_joules': 2.2572e-06,
                                 'disk_joules': 0.0},
                      'obs': '8e96a95ac42762fc1985299b90af1be4ef455d027a814ecfc2d2bd01291f0cce'},
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
                  'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f',
                  'breakdown': [('disk_read', 0.15285163000000002),
                                ('allocation', 4.992e-07),
                                ('compute', 0.00965557),
                                ('cache_clear', 0.0),
                                ('orchestration', 4.93536e-05)],
                  'wall_seconds': '0.16255705279999988',
                  'energy': {'idle_joules': 1.381734948799999,
                             'core_joules': 0.6127198338333333,
                             'dram_joules': 0.0,
                             'disk_joules': 0.0009475},
                  'obs': 'af3943be7ea3dbf16c89125d24da044fe39d822d52d0f53fdf6ab8d88acf8d44'},
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
                      'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f',
                      'breakdown': [('disk_read', 0.1646351999999995),
                                    ('allocation', 8.486399999999967e-06),
                                    ('compute', 0.006839853333333333),
                                    ('cache_clear', 0.0),
                                    ('orchestration', 1.3353599999999995e-05)],
                      'wall_seconds': '0.1714968933333327',
                      'energy': {'idle_joules': 1.457723593333328,
                                 'core_joules': 0.06429167383333333,
                                 'dram_joules': 0.0,
                                 'disk_joules': 0.0},
                      'obs': '5f9bb12bf892832344b634d578ee59a3b912fab53659a3e28f09a1a90a33f811'},
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
                  'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f',
                  'breakdown': [('compute', 0.018909315833333336),
                                ('cache_clear', 0.0),
                                ('disk_read', 0.16250720000000016),
                                ('orchestration', 1.3535999999999998e-06)],
                  'wall_seconds': '0.18141786943333332',
                  'energy': {'idle_joules': 1.5420518901833333,
                             'core_joules': 0.6168161538333339,
                             'dram_joules': 0.0,
                             'disk_joules': 0.0009550000000000001},
                  'obs': 'c887e91010f9ba2548e552217e8bb84d227ac650faf34c3a43d959c1bea9b8ec'},
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
                   'outputs': '835e78351190322e73ed901e801c150582493e12f3e4ed8cfafc9c6489eca624',
                   'breakdown': [('compute', 0.0060352225),
                                 ('cache_clear', 0.0),
                                 ('disk_read', 0.052750399999999996)],
                   'wall_seconds': '0.058785622499999995',
                   'energy': {'idle_joules': 0.49967779124999995,
                              'core_joules': 0.19987111649999995,
                              'dram_joules': 0.0,
                              'disk_joules': 0.00031},
                   'obs': 'c91e0ec1f530354464c88be950018aa6f35e93a8eb7138b9fb431388e91ed108'},
 ('unprotected', False): {'fired': ['pointer ds=1'],
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
                                    'detected_faults': ['ds=1 exec=0: job ds=1 exec=0: '
                                                        'corrupted pointer (134217832, '
                                                        '8)'],
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
                          'clock': '0.061316800266666686',
                          'outputs': 'f1642dde0db24611cab439468562930fe75f6963a849b4dbefef29d6f582e58f',
                          'breakdown': [('compute', 0.006437046666666667),
                                        ('cache_clear', 0.0),
                                        ('disk_read', 0.054878399999999994),
                                        ('orchestration', 1.3535999999999998e-06)],
                          'wall_seconds': '0.061316800266666686',
                          'energy': {'idle_joules': 0.5211928022666669,
                                     'core_joules': 0.6168161538333332,
                                     'dram_joules': 0.0,
                                     'disk_joules': 0.0009550000000000001},
                          'obs': 'a05df7a0bb5170f69bbf1c25cfb9820648858ad31b5abd25c9b9205ee34dd4a5'},
 ('checksum', False): {'fired': ['pointer ds=3'],
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
                                                     'corrupted pointer (134217848, '
                                                     '8)'],
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
                       'clock': '0.05838875449999998',
                       'outputs': '835e78351190322e73ed901e801c150582493e12f3e4ed8cfafc9c6489eca624',
                       'breakdown': [('checksum', 4.699999999999997e-06),
                                     ('compute', 0.0060352225),
                                     ('cache_clear', 0.0),
                                     ('disk_read', 0.052348832)],
                       'wall_seconds': '0.05838875449999998',
                       'energy': {'idle_joules': 0.49630441324999985,
                                  'core_joules': 0.19852176529999993,
                                  'dram_joules': 0.0,
                                  'disk_joules': 0.00031},
                       'obs': 'e8505bd394f2cddc0497189289e73916bc7e4f887f3fd9caa1e8acfc86e98754'}}


@pytest.mark.parametrize(
    "scheme,ecc", CASES, ids=[f"{s}-{'ecc' if e else 'noecc'}" for s, e in CASES]
)
def test_data_path_accounting_is_pinned(scheme, ecc):
    assert _run(scheme, ecc) == PINNED[(scheme, ecc)]


if __name__ == "__main__":
    import pprint

    pprint.pprint({case: _run(*case) for case in CASES}, width=88, sort_dicts=False)
