"""The wide-range census: fit_notch over the wide-range probe's draws.

The probe spans Q_in 1e2-3e6, |Q_e| 3e2-3e5, |phi| < 1.4, 8-3000 points
over 0.1-100 linewidths with the window off centre by up to half its
width, and noise from 1e-5 to 0.5 of the gain. The census tallies how
each draw's fit ends and the pulls (fit - truth) / reported sigma of
the converged ones. `test_wide_range_census` pins its first 200 draws;
run by hand it prints the table for any count and seed (default 5):

    PYTHONPATH=src python tests/census.py 800
    PYTHONPATH=src python tests/census.py 800 6

and exits 1 when a converged fit has |pull| > LARGE_PULL, a fit that
does not resolve what it reports. Only a ResokitError counts as an
outcome; any other exception ends the run with a traceback. Its last
line, `digest`, is a sha256 over every draw's fingerprint, so two
commits that print the same digest fit the draws to the same bits.
"""

import hashlib
import math
import sys
from dataclasses import dataclass

import numpy as np

import resokit as rk
from resokit.errors import ResokitError

# Pull columns: f_r, Q_l, |Q_e|, Q_in, and 1/Q_in with the delta-method
# error of Q_in.
PULL_NAMES = ("f_r", "Q_l", "|Q_e|", "Q_in", "1/Q_in")
# A converged fit with |pull| > LARGE_PULL in f_r, Q_l, |Q_e| or 1/Q_in
# does not resolve what it reports.
LARGE_PULL = 10.0


def wide_range_probe(count, seed=5):
    """The first `count` traces of the wide-range probe, drawn in order
    from numpy default_rng(seed).

    Yields (params, q_in, trace, well_posed). A trace is well-posed when
    it spans at least 3 linewidths, the resonance lies in the inner half
    of the window, it has at least 100 points, and its noise per
    linewidth, noise * sqrt(2 linewidths / N) relative to the gain, is
    below 2 % of the circle diameter Q_l/|Q_e|.
    """
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))

    for _ in range(count):
        q_in, q_e = log_uniform(1e2, 3e6), log_uniform(3e2, 3e5)
        phi = rng.uniform(-1.4, 1.4)
        gain = rng.uniform(0.5, 2.0)
        p = rk.NotchParams(f_r=rng.uniform(5e9, 8e9), q_ext_mag=q_e,
                           q_loaded=1.0 / (1.0 / q_in + math.cos(phi) / q_e),
                           mismatch_phi=phi, env_gain=gain,
                           env_phase=rng.uniform(-math.pi, math.pi),
                           cable_delay=rng.uniform(0.0, 60e-9))
        linewidths = log_uniform(0.1, 100.0)
        half = linewidths * p.f_r / p.q_loaded / 2.0
        points = int(rng.integers(8, 3001))
        grid = np.linspace(p.f_r - half, p.f_r + half, points)
        off = rng.uniform(-0.5, 0.5)
        grid += 2.0 * off * half
        noise = log_uniform(1e-5, 0.5)
        trace = rk.synthesize_trace(p, grid, noise_sigma=gain * noise,
                                    seed=int(rng.integers(0, 2 ** 32 - 1)))
        well_posed = (linewidths >= 3.0 and abs(off) <= 0.25
                      and points >= 100
                      and noise * math.sqrt(2.0 * linewidths / points)
                      < 0.02 * p.q_loaded / p.q_ext_mag)
        yield p, q_in, trace, well_posed


def fit_or_error(trace):
    """fit_notch's result on trace, or the ResokitError it raised."""
    try:
        return rk.fit_notch(trace)
    except ResokitError as exc:
        return exc


def fingerprint(outcome) -> str:
    """A fit_or_error outcome to the bit: the error's class and message,
    or the repr of the result's params, uncertainties, residual_rms and
    converged."""
    if isinstance(outcome, ResokitError):
        return f"{type(outcome).__name__}: {outcome}"
    return repr((outcome.params, outcome.uncertainties,
                 outcome.residual_rms, outcome.converged))


@dataclass
class Census:
    """How each probe draw's fit ended: outcomes[i] is "converged", "not
    converged" or the ResokitError's class name, pulls maps each
    converged draw to its PULL_NAMES pulls, and digest is the sha256 hex
    digest over the draws' fingerprints, one line each."""

    outcomes: list
    well_posed: list
    pulls: dict
    digest: str

    def counts(self, well_posed_only=False) -> dict:
        out = {}
        for outcome, well in zip(self.outcomes, self.well_posed):
            if well or not well_posed_only:
                out[outcome] = out.get(outcome, 0) + 1
        return out

    def large_pulls(self) -> list:
        """Converged draws with |pull| > LARGE_PULL in f_r, Q_l, |Q_e| or
        1/Q_in."""
        return [i for i, pulls in self.pulls.items()
                if np.any(np.abs(pulls[[0, 1, 2, 4]]) > LARGE_PULL)]

    def not_converged(self) -> list:
        return [i for i, outcome in enumerate(self.outcomes)
                if outcome == "not converged"]

    def well_posed_pulls(self) -> np.ndarray:
        """(draws, 4) f_r, Q_l, |Q_e| and Q_in pulls of the converged
        well-posed draws."""
        return np.array([pulls[:4] for i, pulls in self.pulls.items()
                         if self.well_posed[i]]).reshape(-1, 4)


def census(count, seed=5) -> Census:
    """fit_notch over the first `count` probe draws."""
    outcomes, well_posed, pulls = [], [], {}
    digest = hashlib.sha256()
    for i, (p, q_in, trace, well) in enumerate(
            wide_range_probe(count, seed)):
        well_posed.append(well)
        res = fit_or_error(trace)
        digest.update(f"{fingerprint(res)}\n".encode())
        if isinstance(res, ResokitError):
            outcomes.append(type(res).__name__)
            continue
        outcomes.append("converged" if res.converged else "not converged")
        if not res.converged:
            continue
        err, fit = res.uncertainties, res.params
        with np.errstate(divide="ignore", invalid="ignore"):
            pulls[i] = np.array([
                (fit.f_r - p.f_r) / err["f_r"],
                (fit.q_loaded - p.q_loaded) / err["q_loaded"],
                (fit.q_ext_mag - p.q_ext_mag) / err["q_ext_mag"],
                (res.q_internal - q_in) / err["q_internal"],
                (1.0 / res.q_internal - 1.0 / q_in)
                / (err["q_internal"] / res.q_internal ** 2)])
    return Census(outcomes, well_posed, pulls, digest.hexdigest())


def main(argv) -> int:
    count = int(argv[0]) if argv else 800
    seed = int(argv[1]) if len(argv) > 1 else 5
    result = census(count, seed)
    every, well = result.counts(), result.counts(well_posed_only=True)
    print(f"wide-range census, seed {seed}, {count} draws "
          f"({sum(result.well_posed)} well-posed)")
    print("| outcome | all | well-posed |")
    print("|---|---|---|")
    for outcome in sorted(every, key=lambda k: (-every[k], k)):
        print(f"| {outcome} | {every[outcome]} | {well.get(outcome, 0)} |")
    large = result.large_pulls()
    print(f"| converged with \\|pull\\| > {LARGE_PULL:g} | {len(large)} | "
          f"{sum(result.well_posed[i] for i in large)} |")
    print("converged with |pull| > "
          f"{LARGE_PULL:g}: {' '.join(map(str, large)) or '-'}")
    print("not converged: "
          f"{' '.join(map(str, result.not_converged())) or '-'}")
    std = np.std(result.well_posed_pulls(), axis=0)
    print("well-posed pull std (population), "
          + " / ".join(PULL_NAMES[:4]) + ": "
          + " / ".join(f"{s:.2f}" for s in std))
    print(f"digest {result.digest}")
    return 1 if large else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
