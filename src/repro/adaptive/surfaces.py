"""Named adaptive surfaces, shared by the CLI, CI checks, and bench.

Trial fingerprints hash the campaign name, params, and seeds — so two
processes only share a store if they build *identical* sources. Every
entry point (``repro adaptive run/status``,
``scripts/check_equivalence.py``, ``scripts/bench_perf.py``) goes
through :func:`build_source` for exactly that reason: same arguments,
same source, fingerprint-for-fingerprint.

The ``uniform`` flag is the baseline sampler: ``epsilon = 1.0`` (every
wave flux-weighted, the model never trains) under a ``-uniform`` name
suffix, so adaptive and baseline streams sharing one store never
collide.
"""

from __future__ import annotations

from dataclasses import replace

from ..errors import ConfigurationError

__all__ = ["SURFACES", "build_source"]

#: surface name -> what the stream strikes.
SURFACES = {
    "smoke": "synthetic census with known sensitivities (CI-fast)",
    "table7": "pinned strikes on the warmed rpi_zero2w machine",
}


def build_source(
    surface: str,
    *,
    seed: int = 0,
    uniform: bool = False,
    wave_size: "int | None" = None,
    max_rounds: "int | None" = None,
    target_width: "float | None" = None,
    epsilon: "float | None" = None,
):
    """Build a named surface's stream; returns ``(source, true_rate)``.

    ``true_rate`` is the closed-form flux-weighted SDC rate where the
    surface has one (smoke), else ``None``. ``target_width <= 0``
    means "no width stop: run all ``max_rounds``".
    """
    if surface == "smoke":
        from .smoke import make_smoke_source

        source, true_rate = make_smoke_source(
            seed=seed,
            name="adaptive-smoke-uniform" if uniform else "adaptive-smoke",
            epsilon=1.0 if uniform else epsilon,
        )
    elif surface == "table7":
        from ..experiments.table7_adaptive import source as table7_source

        source, true_rate = table7_source(seed=seed), None
        if uniform:
            source.name = f"{source.name}-uniform"
            source.config = replace(source.config, epsilon=1.0)
        elif epsilon is not None:
            source.config = replace(source.config, epsilon=epsilon)
    else:
        raise ConfigurationError(
            f"unknown surface {surface!r}; known: {', '.join(SURFACES)}"
        )

    overrides: "dict[str, object]" = {}
    if wave_size is not None:
        overrides["wave_size"] = wave_size
    if max_rounds is not None:
        overrides["max_rounds"] = max_rounds
        overrides["min_rounds"] = min(source.config.min_rounds, max_rounds)
    if target_width is not None:
        overrides["target_width"] = target_width if target_width > 0 else None
    if overrides:
        source.config = replace(source.config, **overrides)
    return source, true_rate
