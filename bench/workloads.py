"""Workload definitions and the expected outcome of every pipeline call.

A workload is a list of `eqmeas` CLI calls, each with its INI config, made
in order by one client (closed loop).  The benchmark seed is passed to every
call as `--seed`.  README.md says why each workload exists.
"""

from __future__ import annotations

import dataclasses

FULLSUITE_CHECKS = (
    ("press", "pressure_radius_spread"),
    ("cdim", "bracket_width"),
    ("cdim", "dim_matches_pressure"),
    ("refmeas", "mass_ratio"),
    ("refmeas", "mass_slope"),
    ("evolve", "tv_to_uniform"),
    ("gibbs", "qhat_bounded"),
    ("gibbs", "qhat_flat"),
    ("holonomy", "jacobian_window"),
    ("disintegrate", "conditional_constant"),
    ("disintegrate", "product_tv"),
    ("probe", "transitivity"),
    ("probe", "birkhoff_dispersion"),
)

SLOWPROD_CONFIG = {
    "steps": 8, "n_centers": 4, "n_mc": 256, "gibbs_n_lo": 1,
    "gibbs_n_hi": 5, "birkhoff_steps": 10, "n_samples": 64,
}


@dataclasses.dataclass(frozen=True)
class Call:
    """One `eqmeas <pipeline> --check` invocation and the verdicts it should give.

    expect holds (pipeline, check, verdict) for every check the call runs.
    """

    label: str
    pipeline: str
    system: str
    config: dict
    expect: tuple

    def ini(self):
        lines = ["[run]", "schema_version = 1", f"system = {self.system}"]
        lines += [f"{k} = {v}" for k, v in self.config.items()]
        return "\n".join(lines) + "\n"


def _all_ok(checks):
    return tuple((p, c, True) for p, c in checks)


WORKLOADS = {
    "fullsuite-c1": (
        Call("cat.fullsuite", "fullsuite", "cat", {"potential": "zero"},
             _all_ok(FULLSUITE_CHECKS)),
        Call("skew.fullsuite", "fullsuite", "skew", {"potential": "zero"},
             _all_ok(FULLSUITE_CHECKS)),
    ),
    "cdim-cos": (
        Call("cat.cdim", "cdim", "cat",
             {"potential": "cos", "leaf_radius": 0.005, "r": 0.25},
             _all_ok((("cdim", "bracket_width"), ("cdim", "dim_matches_pressure")))),
    ),
    "slowprod-control": (
        Call("slowprod.gibbs", "gibbs", "slowprod", SLOWPROD_CONFIG,
             (("gibbs", "qhat_blows_up", True),)),
        # Known failure: the fiber orbit from (0.13, 0.86) comes no closer
        # than 0.24 to the fixed centre in 30 steps, so no k is found.
        Call("slowprod.probe", "probe", "slowprod", SLOWPROD_CONFIG,
             (("probe", "transitivity", False),)),
    ),
}

# Checks computed from seeded random samples.  Their verdicts were recorded
# for every workload on seeds SCANNED_SEEDS; the ones that differ from the
# expectation above are listed in SEED_VERDICTS.  Outside SCANNED_SEEDS the
# verdict of a seeded check is counted but not judged.
SEEDED_CHECKS = {("refmeas", "mass_ratio"), ("refmeas", "mass_slope"),
                 ("gibbs", "qhat_bounded"), ("gibbs", "qhat_flat"),
                 ("gibbs", "qhat_blows_up"), ("probe", "birkhoff_dispersion")}
SCANNED_SEEDS = range(0, 100)
SEED_VERDICTS = {
    # (seed, call label, pipeline, check) -> verdict
    (11, "skew.fullsuite", "gibbs", "qhat_bounded"): False,
    (60, "skew.fullsuite", "gibbs", "qhat_bounded"): False,
    (73, "skew.fullsuite", "gibbs", "qhat_bounded"): False,
    **{(seed, "slowprod.gibbs", "gibbs", "qhat_blows_up"): False
       for seed in (1, 11, 29, 34, 47, 48, 49, 72, 97)},
}


def expected(call, seed):
    """{(pipeline, check): verdict or None (not judged)} of `call` under `seed`."""
    verdicts = {}
    for pipeline, check, ok in call.expect:
        if (pipeline, check) in SEEDED_CHECKS:
            ok = (SEED_VERDICTS.get((seed, call.label, pipeline, check), ok)
                  if seed in SCANNED_SEEDS else None)
        verdicts[(pipeline, check)] = ok
    return verdicts
