"""Plain-text experiment configs: flat key = value entries under section
headers, naming coefficient families and run parameters. The resolved config
(defaults included) round-trips through the run manifest, so any run can be
replayed from its manifest alone.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from math import inf

from .model import (Grid, ProblemSpec, eta_family, flux_family, init_family,
                    phi_family)
from .noise import LevyIntensity, SizeMeasure

__all__ = ["ConfigError", "ExperimentConfig"]


class ConfigError(ValueError):
    """Invalid experiment config; the message names the section and key."""


def _parse_atoms(text):
    atoms = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            v, m = item.split(":")
            atoms.append((float(v), float(m)))
        except ValueError as err:
            raise ConfigError(
                "noise.size_atoms entries must be value:mass, got %r"
                % (item,)) from err
    return tuple(atoms)


def _parse_floats(text):
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_ints(text):
    return tuple(int(x) for x in text.split(",") if x.strip())


def _parse_names(text):
    return tuple(x.strip() for x in text.split(",") if x.strip())


# (type, default, allowed-values-or-None) per section.key; defaults render
# into the manifest so a manifest is always a complete config.
_SCHEMA = {
    "model": {
        "phi": (str, "linear", ("linear", "zero", "stefan", "porous")),
        "phi_scale": (float, 1.0, None),
        "flux": (str, "zero", ("zero", "linear", "burgers")),
        "flux_scale": (float, 1.0, None),
        "flux_form": (str, "central", ("central", "engquist_osher")),
        "u0": (str, "bump", ("zero", "bump", "box", "constant")),
        "u0_height": (float, 1.0, None),
        "u0_center": (float, 0.0, None),
        "u0_width": (float, 1.0, None),
        "epsilon": (float, 0.1, None),
        "horizon": (float, 0.5, None),
        "dim": (int, 1, (1, 2)),
    },
    "noise": {
        "eta": (str, "zero", ("zero", "separable")),
        "g": (str, "const", ("const", "bump")),
        "g_height": (float, 1.0, None),
        "g_center": (float, 0.0, None),
        "g_width": (float, 1.0, None),
        "sigma": (str, "const", ("const", "linear", "clip", "compact", "bump")),
        "sigma_scale": (float, 1.0, None),
        "sigma_cap": (float, 1.0, None),
        "h": (str, "identity", ("identity", "const")),
        "position_mass": (float, 1.0, None),
        "size": (str, "atoms", ("atoms", "uniform", "alpha_stable")),
        "size_atoms": (_parse_atoms, ((1.0, 1.0),), None),
        "size_lo": (float, 0.5, None),
        "size_hi": (float, 1.0, None),
        "size_mass": (float, 1.0, None),
        "alpha": (float, 0.5, None),
        "z_min": (float, 0.1, None),
        "v_max": (float, 1.0, None),
        "strength": (float, 1.0, None),
    },
    "grid": {
        "half_width": (float, 2.0, None),
        "cells": (int, 64, None),
    },
    "run": {
        "steps": (int, 32, None),
        "steps_list": (_parse_ints, (), None),
        "eps_list": (_parse_floats, (), None),
        "paths": (int, 50, None),
        "seed": (int, 0, None),
    },
    "diagnostics": {
        "checks": (_parse_names, (), None),
        "moment_orders": (_parse_ints, (2, 4), None),
        "identity_pairs": (int, 200, None),
        "isometry_paths": (int, 2000, None),
        "contraction_weight": (float, 4.0, None),
        "v0": (str, "", ("", "zero", "bump", "box", "constant")),
        "v0_height": (float, 1.0, None),
        "v0_center": (float, 0.0, None),
        "v0_width": (float, 1.0, None),
    },
    "output": {
        "directory": (str, "out", None),
    },
}

_KNOWN_CHECKS = (
    "assumptions", "identities", "sandwich", "energy", "entropy_residual",
    "max_principle", "moments", "isometry", "boundary_mass", "contraction",
    "determinism",
)


@dataclass
class ExperimentConfig:
    """Typed view of one experiment config with manifest round-tripping."""

    values: dict = field(default_factory=dict)

    # -- construction -------------------------------------------------------

    @classmethod
    def defaults(cls) -> "ExperimentConfig":
        vals = {sec: {k: spec[1] for k, spec in keys.items()}
                for sec, keys in _SCHEMA.items()}
        return cls(values=vals)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=("#", ";"))
        parser.optionxform = str
        try:
            parser.read_string(text)
        except configparser.Error as err:
            raise ConfigError("config parse error: %s" % (err,)) from err
        cfg = cls.defaults()
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError("unknown section [%s]" % (section,))
            for key, raw in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(
                        "unknown key %s.%s" % (section, key))
                typ, _, allowed = _SCHEMA[section][key]
                try:
                    value = typ(raw)
                except ConfigError:
                    raise
                except (TypeError, ValueError) as err:
                    raise ConfigError(
                        "bad value for %s.%s: %r (%s)"
                        % (section, key, raw, err)) from err
                if allowed is not None and value not in allowed:
                    raise ConfigError(
                        "%s.%s must be one of %s, got %r"
                        % (section, key, allowed, value))
                cfg.values[section][key] = value
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r") as fh:
            return cls.from_text(fh.read())

    def validate(self) -> None:
        for name in self.get("diagnostics", "checks"):
            if name not in _KNOWN_CHECKS:
                raise ConfigError(
                    "diagnostics.checks: unknown check %r (known: %s)"
                    % (name, ", ".join(_KNOWN_CHECKS)))
        for section, key, least in (
                ("run", "seed", 0), ("run", "paths", 1), ("run", "steps", 1),
                ("diagnostics", "identity_pairs", 1),
                ("diagnostics", "isometry_paths", 2)):
            if self.get(section, key) < least:
                raise ConfigError("%s.%s must be >= %d, got %d" % (
                    section, key, least, self.get(section, key)))
        if any(n < 1 for n in self.get("run", "steps_list")):
            raise ConfigError("run.steps_list entries must be >= 1")
        if any(not 0.0 < e < inf for e in self.get("run", "eps_list")):
            raise ConfigError("run.eps_list entries must be finite and > 0")
        orders = self.get("diagnostics", "moment_orders")
        if any(p < 2 or p % 2 for p in orders) or (
                not orders and "moments" in self.get("diagnostics", "checks")):
            raise ConfigError(
                "diagnostics.moment_orders entries must be even and >= 2, "
                "and the moments check needs at least one")
        if not 0.0 < self.get("diagnostics", "contraction_weight") < inf:
            raise ConfigError(
                "diagnostics.contraction_weight must be finite and > 0")
        if "contraction" in self.get("diagnostics", "checks") and \
                not self.get("diagnostics", "v0"):
            raise ConfigError(
                "diagnostics.v0 must name an initial-data family for the "
                "contraction check")

    # -- access --------------------------------------------------------------

    def get(self, section: str, key: str):
        return self.values[section][key]

    def set(self, section: str, key: str, value) -> None:
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError("unknown key %s.%s" % (section, key))
        self.values[section][key] = value

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _render_value(value) -> str:
        if isinstance(value, float):
            return "%.17g" % value
        if isinstance(value, tuple):
            if value and isinstance(value[0], tuple):
                return ", ".join("%.17g:%.17g" % vm for vm in value)
            if value and isinstance(value[0], float):
                return ", ".join("%.17g" % v for v in value)
            return ", ".join(str(v) for v in value)
        return str(value)

    def manifest_text(self) -> str:
        buf = io.StringIO()
        for section in sorted(self.values):
            buf.write("[%s]\n" % section)
            for key in sorted(self.values[section]):
                buf.write("%s = %s\n"
                          % (key, self._render_value(self.values[section][key])))
            buf.write("\n")
        return buf.getvalue()

    # -- realization ---------------------------------------------------------

    def build_grid(self) -> Grid:
        return Grid(dim=self.get("model", "dim"),
                    half_width=self.get("grid", "half_width"),
                    cells=self.get("grid", "cells"))

    def build_intensity(self) -> LevyIntensity:
        n = self.values["noise"]
        try:
            if n["size"] == "atoms":
                size = SizeMeasure("atoms", atoms=n["size_atoms"])
            elif n["size"] == "uniform":
                size = SizeMeasure("uniform", lo=n["size_lo"],
                                   hi=n["size_hi"], mass=n["size_mass"])
            else:
                size = SizeMeasure("alpha_stable", alpha=n["alpha"],
                                   z_min=n["z_min"], v_max=n["v_max"],
                                   strength=n["strength"])
            return LevyIntensity(position_mass=n["position_mass"], size=size)
        except ValueError as err:
            raise ConfigError("[noise] %s" % (err,)) from err

    def build_spec(self) -> ProblemSpec:
        m = self.values["model"]
        n = self.values["noise"]
        dim = m["dim"]
        phi = phi_family(m["phi"], m["phi_scale"])
        flux = flux_family(m["flux"], dim, m["flux_scale"])
        eta = eta_family(
            n["eta"], g_kind=n["g"], g_height=n["g_height"],
            g_center=n["g_center"], g_width=n["g_width"],
            sigma_kind=n["sigma"], sigma_scale=n["sigma_scale"],
            sigma_cap=n["sigma_cap"], h_kind=n["h"], dim=dim)
        u0 = init_family(m["u0"], height=m["u0_height"],
                         center=m["u0_center"], width=m["u0_width"], dim=dim)
        return ProblemSpec(
            phi=phi, flux=flux, eta=eta, u0=u0, levy=self.build_intensity(),
            epsilon=m["epsilon"], horizon=m["horizon"], dim=dim,
            flux_form=m["flux_form"])

    def build_v0(self):
        name = self.get("diagnostics", "v0")
        if not name:
            return None
        d = self.values["diagnostics"]
        return init_family(name, height=d["v0_height"], center=d["v0_center"],
                           width=d["v0_width"], dim=self.get("model", "dim"))
