"""Experiment drivers: one per reproduced table/figure/statement.

Importing this package registers every driver; use
:func:`repro.experiments.common.get_experiment` or the ``repro`` CLI to
run them. ``repro list`` prints the index (id, title, claim) and
``repro run <ID> --scale full`` regenerates a table.
"""

from repro.experiments import (  # noqa: F401  (import = registration)
    a1_block_size,
    a2_repetition,
    a3_coding_margin,
    e01_decay_faultless,
    e02_decay_noisy,
    e03_fastbc_faultless,
    e04_fastbc_noisy_path,
    e05_robust_fastbc,
    e06_rlnc_decay,
    e07_rlnc_fastbc,
    e08_star_routing,
    e09_star_coding,
    e10_star_gap,
    e11_wct_structure,
    e12_wct_routing,
    e13_wct_gap,
    e14_transform_routing,
    e15_transform_coding,
    e16_sender_fault_gaps,
    e17_single_link_routing,
    e18_single_link_coding,
    e19_single_link_gap,
    e20_adversary_gap,
    e21_certified_gap,
    e22_timeline_wavefront,
    e23_contention_gap,
    x1_open_problem,
)
from repro.experiments.common import Experiment, all_experiments, get_experiment

__all__ = ["Experiment", "all_experiments", "get_experiment"]
