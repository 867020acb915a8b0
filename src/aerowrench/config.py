"""Scenario configuration: typed sections, YAML parsing, round-trip output.

A configuration file is a nested key-value document with one section per
subsystem. Every key is optional and falls back to the built-in defaults;
unknown keys are rejected rather than ignored so typos cannot silently
change a run. ``serialize_config(parse_config(p))`` reparses to an equal
configuration.
"""

import hashlib
import importlib.resources
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_origin

import numpy as np
import yaml

from . import dynamics as dyn
from . import estimation as est
from . import simulation as sim
from .errors import AerowrenchError, ParseError, ValidationError

__all__ = [
    "FilterConfig", "RunConfig", "ScenarioConfig", "parse_config",
    "serialize_config", "config_digest", "default_config_path",
]


@dataclass
class FilterConfig:
    """Estimator tuning: noise diagonals, sigma scaling, observer gain."""

    q_diag: np.ndarray = field(default_factory=lambda: est.DEFAULT_Q_DIAG.copy())
    r_diag: np.ndarray = field(default_factory=lambda: est.DEFAULT_R_DIAG.copy())
    p0_diag: np.ndarray = field(default_factory=lambda: est.DEFAULT_P0_DIAG.copy())
    phi: float = 1.0
    gamma: float = 2.0
    sigma: float = 0.0
    delta: float = 72.0

    def __post_init__(self):
        self.q_diag = np.asarray(self.q_diag, dtype=float)
        self.r_diag = np.asarray(self.r_diag, dtype=float)
        self.p0_diag = np.asarray(self.p0_diag, dtype=float)

    def validate(self):
        bad = []
        for name, arr, size in (("q_diag", self.q_diag, 19),
                                ("r_diag", self.r_diag, 9),
                                ("p0_diag", self.p0_diag, 19)):
            if arr.shape != (size,):
                bad.append("filter.%s must have %d entries" % (name, size))
            elif not np.all((arr >= 0.0) & (arr < np.inf)):
                bad.append("filter.%s entries must be nonnegative and finite" % name)
        # the trailing state component is pinned, so it may carry no noise
        if self.q_diag.shape == (19,) and self.q_diag[-1] != 0.0:
            bad.append("filter.q_diag last entry must be zero")
        if self.p0_diag.shape == (19,) and self.p0_diag[-1] != 0.0:
            bad.append("filter.p0_diag last entry must be zero")
        # The sigma-point spread n + eta is phi^2 (n + sigma) at n = E_DIM.
        for name, low in (("phi", 0), ("gamma", -np.inf), ("sigma", -est.E_DIM),
                          ("delta", 0)):
            if not low < getattr(self, name) < np.inf:
                bad.append("filter.%s must be finite and exceed %g, got %r"
                           % (name, low, getattr(self, name)))
        if bad:
            raise ValidationError(bad)
        return self


@dataclass
class RunConfig:
    t_step: float = 0.01
    duration: float = 70.0
    seed: int = 0
    estimators: tuple = ("qukf", "ekf")

    def __post_init__(self):
        self.estimators = tuple(self.estimators)

    def validate(self):
        sim.validate_run(self.t_step, self.duration, self.seed, self.estimators)
        return self


@dataclass
class ScenarioConfig:
    """Everything one closed-loop run needs, grouped by subsystem.

    The observer gain lives in the filter section; the system section
    holds only physical constants.
    """

    system: dyn.SystemParams = field(default_factory=dyn.SystemParams)
    filter: FilterConfig = field(default_factory=FilterConfig)
    admittance: sim.AdmittanceParams = field(default_factory=sim.AdmittanceParams)
    profile: sim.ForceProfile = field(default_factory=sim.ForceProfile)
    run: RunConfig = field(default_factory=RunConfig)

    # -- assembly helpers --------------------------------------------------

    def system_params(self):
        """System constants with the observer gain folded back in."""
        return replace(self.system, delta=self.filter.delta)

    def noise_config(self):
        return est.NoiseConfig(q_diag=self.filter.q_diag.copy(),
                               r_diag=self.filter.r_diag.copy())

    def scaling(self):
        return (self.filter.phi, self.filter.gamma, self.filter.sigma)

    def validate(self):
        bad = []
        with np.errstate(all="ignore"):  # overflows are reported as violations
            for section in (self.system, self.filter, self.admittance,
                            self.profile, self.run):
                try:
                    section.validate()
                except ValidationError as e:
                    bad.extend(e.violations)
            if not bad:
                try:
                    sim.admittance_map(self.admittance, self.run.t_step)
                except ValueError as err:
                    bad.append("admittance.m_v, c_v and k_v at run.t_step: %s" % err)
            if not bad:
                bad.extend(self._first_step_violations())
        if bad:
            raise ValidationError(bad)
        return self

    def _first_step_violations(self):
        """The filter's own rule for values the bounds pass: each filter
        that run.estimators names, built from this config, takes one
        predict and update from hover. A filter error or a non-finite x or
        P names the filter fields."""
        names = ", ".join("filter.%s" % f.name for f in fields(FilterConfig))
        params = self.system_params()
        u = dyn.ControlInput.hover(params)
        z = est.Measurement.from_state(dyn.BodyState.hover())
        bad = []
        for name in self.run.estimators:
            try:
                f = sim.make_filter(name, params, self.noise_config(), self.run.t_step,
                                    self.scaling(), self.filter.p0_diag).step(u, z)
            except (AerowrenchError, ValueError) as err:  # expm: "needs a finite matrix"
                bad.append("%s: %s fails its first step from hover: %s"
                           % (names, name, err))
                continue
            if not (np.isfinite(f.x).all() and np.isfinite(f.P).all()):
                bad.append("%s: %s's first step from hover leaves x or P not finite"
                           % (names, name))
        return bad

    # -- plain-data conversion ---------------------------------------------

    def to_dict(self):
        """Plain data, one key per dataclass field in field order, the
        rule from_dict parses with."""
        data = _plain(self)
        del data["system"]["delta"]  # serialized under filter
        return data

    @classmethod
    def from_dict(cls, data, source="<config>"):
        data = data or {}
        if not isinstance(data, dict):
            raise ParseError("%s: top level must be a mapping" % source)
        sections = {f.name: f.type for f in fields(cls)}
        for key in data:
            if key not in sections:
                raise ParseError("%s: unknown section '%s'" % (source, key))
        return cls(**{name: _build_section(dc_type, data.get(name), name, source,
                                           skip=("delta",) if name == "system" else ())
                      for name, dc_type in sections.items()})


def _plain(value):
    """A dataclass as a dict of its fields in order, arrays and tuples as
    lists, recursively; other values as they are."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _build_section(dc_type, sub, name, source, skip=()):
    """Instantiate a dataclass section, rejecting unknown keys; a missing
    or null section takes the defaults. A field typed list[D] of a
    dataclass D is a list of sections named like profile.segments[i]."""
    sub = {} if sub is None else sub
    if not isinstance(sub, dict):
        raise ParseError("%s: section '%s' must be a mapping" % (source, name))
    spec = {f.name: f for f in fields(dc_type) if f.name not in skip}
    kwargs = {}
    for key, value in sub.items():
        if key not in spec:
            raise ParseError("%s: unknown key '%s.%s'" % (source, name, key))
        path = "%s.%s" % (name, key)
        if get_origin(spec[key].type) is list:
            if not isinstance(value, list):
                raise ParseError("%s: %s must be a list" % (source, path))
            item, = get_args(spec[key].type)
            kwargs[key] = [_build_section(item, raw, "%s[%d]" % (path, i), source)
                           for i, raw in enumerate(value)]
        else:
            kwargs[key] = _coerce(value, getattr(dc_type(), key), path, source)
    return dc_type(**kwargs)


def _coerce(value, default, path, source):
    try:
        if isinstance(default, tuple):
            if not isinstance(value, list):
                raise TypeError
            return tuple(value)
        # YAML's true, yes and on are booleans, which float() would take as 1.
        if any(isinstance(v, bool) for v in np.ravel(np.array(value, dtype=object))):
            raise TypeError
        if isinstance(default, np.ndarray):
            return np.asarray(value, dtype=float)
        if isinstance(default, int):
            if int(value) != value:
                raise TypeError
            return int(value)
        if isinstance(default, float):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError("%s: field '%s' has invalid value %r"
                         % (source, path, value)) from None
    return value


def parse_config(path):
    """Load and validate a configuration file.

    An empty file yields the full default configuration. Raises ParseError
    for unreadable files, syntax errors (with the line number), and unknown
    keys; ValidationError listing every violated invariant.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError("%s: %s" % (path, e.strerror or e)) from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = "%s:%d" % (path, mark.line + 1) if mark else str(path)
        detail = getattr(e, "problem", None) or "invalid syntax"
        raise ParseError("%s: %s" % (where, detail)) from None
    cfg = ScenarioConfig.from_dict(data, source=str(path))
    cfg.validate()
    return cfg


def serialize_config(cfg):
    """Render a configuration back to text; floats keep full precision."""
    return yaml.safe_dump(cfg.to_dict(), sort_keys=False)


def config_digest(cfg):
    """Stable content hash of a configuration."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


def default_config_path():
    """Path of the annotated default configuration shipped with the package."""
    return importlib.resources.files("aerowrench") / "default_config.yaml"
