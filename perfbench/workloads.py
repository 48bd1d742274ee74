"""The benchmark's workloads: which CLI invocations one pass makes, and with
which configs.

A workload is a fixed list of invocations of ``latticeccr <experiment>``.
The seed draws packet centres, widths, kicks and forces from the ranges
below; window sizes, time steps per period and periods stay fixed, so every
seed makes the same amount of work (see NN_FORCE for the one run whose cost
depends on its packet, and which therefore keeps it). The ranges are leak-free: at their
extremes the boundary amplitude stays below the CLI's 1e-6 leakage limit
and every correctness check in ``checks.py`` holds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("paper-figures", "wide-window", "long-evolution")

# All nine CLI experiments, in the order ``paper-figures`` runs them.
EXPERIMENTS = ("spectrum", "sweep", "dynamics", "ccr-check", "fig1", "fig2", "fig3", "fig4", "fig5")

# wide-window: one N = 1601 window for every invocation.
WIDE_M = 800
WIDE_FIG2_C = 0.01
CCR_N0 = (-100, 100)  # packet centre, sites
CCR_FALLOFF = (0.002, 0.008)  # broad: 8 to 16 sites wide, |S| between 2 and 7
CCR_EDGE_OFFSET = (0.02, 0.1)  # pi/a - k0; a kick close to the zone edge keeps |S| away from 0
WS_FORCE = (0.3, 0.6)

# long-evolution: STEPS_PER_PERIOD * PERIODS + 1 time points per packet.
BLOCH_M = 288
HARMONIC_M = 192
HARMONIC_C = 0.01
STEPS_PER_PERIOD = 400
PERIODS = 3
BLOCH_FORCE = (0.4, 0.6)  # below 0.4 the 1/d^3 tail nears the leakage limit at M = 288
BLOCH_N0 = (-20, 20)
BLOCH_FALLOFF = (0.02, 0.2)
BLOCH_KICK = (-1.0, 1.0)
# The nearest-neighbour run keeps its force, centre and width: with cosine
# hopping the far amplitudes underflow to subnormal floats, and how many do
# (12 to 85 of the 1154 real components per step for F in [0.4, 0.6],
# |n0| <= 5, b in [0.02, 0.05]) hinges on F, n0 and b, while the kick moves
# it by about 1 %. This packet keeps about 66 subnormal
# components per step, so every seed pays the same subnormal arithmetic.
NN_FORCE = 0.5
NN_N0 = 0
NN_FALLOFF = 0.02
RELEASE_N0 = (10, 25)  # released at -n0; x_mean stays within 1.8 % of the amplitude from harmonic motion
RELEASE_FALLOFF = (0.1, 0.3)
RELEASE_KICK = (-0.3, 0.3)


@dataclass(frozen=True)
class Invocation:
    """One ``latticeccr`` call: its name in the benchmark, the experiment, the
    config written to ``--config`` and the dataset file it produces."""

    name: str
    experiment: str
    config: dict = field(default_factory=dict)

    @property
    def dataset(self) -> str:
        return self.config.get("output", {}).get("path") or f"{self.experiment}.csv"

    @property
    def manifest(self) -> str:
        return self.dataset.rsplit(".", 1)[0] + "_manifest.json"


def _draw(rng: random.Random, bounds) -> float:
    lo, hi = bounds
    return float(f"{rng.uniform(lo, hi):.6g}")


def _paper_figures(rng: random.Random) -> list[Invocation]:
    # The documented defaults are the workload; the seed changes nothing.
    return [Invocation(exp, exp) for exp in EXPERIMENTS]


def _wide_window(rng: random.Random) -> list[Invocation]:
    lattice = {"M": WIDE_M}
    kick = math.pi - _draw(rng, CCR_EDGE_OFFSET)
    packet = {"n0": rng.randint(*CCR_N0), "b": _draw(rng, CCR_FALLOFF), "k0": float(f"{kick:.9g}")}
    return [
        Invocation("fig2", "fig2", {"lattice": lattice, "c_values": [WIDE_FIG2_C]}),
        Invocation("fig3", "fig3", {"lattice": lattice, "F": _draw(rng, WS_FORCE)}),
        Invocation("ccr-check", "ccr-check", {"lattice": lattice, "packet": packet}),
    ]


def _long_evolution(rng: random.Random) -> list[Invocation]:
    force = _draw(rng, BLOCH_FORCE)
    kick = _draw(rng, BLOCH_KICK)
    packet = {"n0": rng.randint(*BLOCH_N0), "b": _draw(rng, BLOCH_FALLOFF), "k0": kick}
    release = {"n0": -rng.randint(*RELEASE_N0), "b": _draw(rng, RELEASE_FALLOFF), "k0": _draw(rng, RELEASE_KICK)}
    period = 2 * math.pi / math.sqrt(HARMONIC_C)

    def bloch(hopping: str, force: float, packet: dict) -> dict:
        bloch_period = 2 * math.pi / force
        return {
            "lattice": {"M": BLOCH_M},
            "hopping": {"kind": hopping},
            "potential": {"kind": "linear", "F": force},
            "packet": packet,
            "time": {"dt": bloch_period / STEPS_PER_PERIOD, "t_max": PERIODS * bloch_period},
            "output": {"path": f"bloch_{hopping}.json", "format": "json"},
        }

    return [
        Invocation("bloch-quadratic", "dynamics", bloch("quadratic", force, packet)),
        Invocation("bloch-cosine", "dynamics", bloch("cosine", NN_FORCE, {"n0": NN_N0, "b": NN_FALLOFF, "k0": kick})),
        Invocation("harmonic-release", "dynamics", {
            "lattice": {"M": HARMONIC_M},
            "potential": {"kind": "harmonic", "c": HARMONIC_C},
            "packet": release,
            "time": {"dt": period / STEPS_PER_PERIOD, "t_max": PERIODS * period},
            "output": {"path": "harmonic_release.csv", "format": "csv"},
        }),
    ]


_BUILDERS = {
    "paper-figures": _paper_figures,
    "wide-window": _wide_window,
    "long-evolution": _long_evolution,
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of ``workload``; equal seeds give equal configs."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
