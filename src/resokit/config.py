"""Physics overrides, config files and the manifest hash.

Config files are flat `key = value` text with `#` comments. The CLI
loads one into the chosen subcommand's argparse defaults: a key names
one of that subcommand's long flags that takes a value, with dashes or
underscores (`l-nh` or `l_nh`), and a flag given on the command line
wins over the file.
"""

import hashlib
from dataclasses import asdict, dataclass

from . import fitting
from .errors import ConfigError

__all__ = ["PhysicsOverrides", "load_config_file", "config_hash"]


@dataclass(frozen=True)
class PhysicsOverrides:
    """User-adjustable physics inputs, validated against sanity windows.

    kinetic_fraction defaults to zero so predictions match fit constants
    extracted with the bare geometric inductance; gap_ev is the
    superconducting gap used in leakage checks.
    """

    kinetic_fraction: float = 0.0
    gap_ev: float = 180e-6

    def __post_init__(self):
        if not 0.0 <= self.kinetic_fraction < 1.0:
            raise ConfigError("kinetic_fraction must lie in [0, 1)")
        if not 0.0 < self.gap_ev < 1e-2:
            raise ConfigError("gap_ev outside the (0, 1e-2) eV sanity window")


def load_config_file(path: str) -> dict[str, str]:
    """Parse a flat key = value config file into a string dict."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = text.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            out[key] = value
    return out


def config_hash(physics: PhysicsOverrides) -> str:
    """Digest of the physics overrides and the solver's constants.

    Every upper-case numeric constant of resokit.fitting is read at call
    time and hashed as tolerances.<lower-case name>.
    """
    fields: dict[str, object] = {}
    fields.update({f"physics.{k}": v for k, v in asdict(physics).items()})
    fields.update({f"tolerances.{name.lower()}": value
                   for name, value in vars(fitting).items()
                   if name.isupper() and isinstance(value, (int, float))})
    canonical = "\n".join(f"{k} = {fields[k]!r}" for k in sorted(fields))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
