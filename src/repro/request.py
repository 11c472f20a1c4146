"""Typed, serializable run requests — where a run option is declared.

A run option's name and default exist in exactly one place: a field of one
of the three frozen config dataclasses below.  Every other layer *reads*
them — :func:`repro.api.run` and :meth:`RunRequest.from_run_args` route a
keyword to the config whose :func:`dataclasses.fields` names it, the wire
format (``to_dict``/``from_dict``) is derived from the same fields, the
facade's route functions take the request itself, and the ``repro run`` /
``repro submit`` parsers leave every default to the dataclass.

* :class:`ExecutionConfig` — where and how the run executes (nprocs,
  platform, substrate, decomposition, code version, kernel backend);
* :class:`ResilienceConfig` — fault injection and checkpoint/restart;
* :class:`ObservabilityConfig` — tracing, metrics, profiling, ledger
  (never part of the workload identity);
* :class:`RunRequest` — scenario + steps + the three configs, with
  ``to_dict``/``from_dict`` round-tripping and :meth:`RunRequest.fingerprint`
  as the **single source of the cache key** used by the run service's
  result store and stamped into every :class:`~repro.obs.PerfReport`.

Nothing outside the request selects what runs: no environment variable
picks a kernel backend, and a wire dict carrying a key nobody reads
(``"nproc"`` for ``"nprocs"``) is refused by :meth:`RunRequest.from_dict`
instead of executing — and being cached — as a different workload.

Identity vs. observability
--------------------------
The fingerprint covers everything that selects *what work runs*: the
scenario and its constructor overrides, the step count, the execution
route, and the resilience plan.  It deliberately excludes observability
(tracing a run does not change its result), the wall-clock ``timeout``
guard, and fields irrelevant to the selected route (a serial run's
fingerprint does not change with ``decomposition=``).  Two requests with
equal fingerprints execute the same workload and may share one cached
:class:`~repro.api.RunResult`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from .obs.report import config_fingerprint

__all__ = [
    "REQUEST_SCHEMA",
    "ExecutionConfig",
    "ObservabilityConfig",
    "ResilienceConfig",
    "RunRequest",
]

#: Request wire-format tag; bump on incompatible shape changes.
REQUEST_SCHEMA = "repro.request/1"


@dataclass(frozen=True)
class ExecutionConfig:
    """Where and how a run executes (the routing half of ``run(...)``)."""

    nprocs: int = 1
    platform: str | None = None
    """Platform name selecting the simulated (DES) route, else ``None``."""
    substrate: str = "virtual"
    """Distributed substrate: ``"virtual"`` (threads) or ``"process"``."""
    decomposition: str = "axial"
    px: int | None = None
    pr: int | None = None
    version: int = 7
    """Paper code version (5 grouped / 6 overlapped / 7 de-burstified);
    real ranks run Version 6 with Version 5's blocking halo refresh."""
    backend: str | None = None
    """Kernel backend override (``"baseline"``/``"fused"``/``"compiled"``),
    ``None`` keeps the scenario's configured backend."""
    steps_window: int = 30
    """DES steps actually executed before scaling (simulated route)."""
    timeout: float = 120.0
    """Wall-clock guard for distributed runs — never part of the
    fingerprint (a slower timeout is the same workload)."""


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault injection and checkpoint/restart configuration."""

    faults: Any = None
    """``None``, a preset name, or a :class:`~repro.faults.FaultPlan`."""
    fault_seed: int | None = None
    checkpoint_every: int = 0
    max_restarts: int = 2


@dataclass(frozen=True)
class ObservabilityConfig:
    """Tracing/metrics/ledger/streams — orthogonal to the workload.

    In-process callers may pass live objects (a
    :class:`~repro.obs.Tracer`, a :class:`~repro.obs.MetricsRegistry`);
    :meth:`to_dict` normalizes them to ``True`` so the request stays
    wire-serializable without them.
    """

    trace: Any = None
    """Falsy, ``True``, a Tracer, or a Chrome-trace export path."""
    metrics: Any = None
    """Falsy, ``True``, or a MetricsRegistry to record into."""
    ledger: Any = None
    """Falsy, ``True`` (anchored default ledger) or an explicit path."""
    stream: Any = None
    """Falsy, ``True``, a depth int, or a live
    :class:`~repro.obs.FlightRing` to write step records into (the caller's
    to read and close; any other value gets a temp ring that the run reads
    into ``RunResult.stream`` and deletes)."""
    flight: Any = None
    """Falsy, ``True``, a capacity int, a flush path, or a live
    :class:`~repro.obs.FlightRing` (the caller's to close; any other value
    gets a temp ring sized ``execution.nprocs`` that the run deletes)."""

    def to_dict(self) -> dict:
        return {
            name: _plain_flag(getattr(self, name))
            for name in _FIELDS["observability"]
        }


def _plain_flag(value: Any) -> Any:
    """Coerce a live observability object to its wire form."""
    if value is None or isinstance(value, (bool, str, int, float)):
        return value
    try:
        import os

        return os.fspath(value)
    except TypeError:
        return True


#: ``RunRequest`` attribute -> the config dataclass that declares its options.
_CONFIGS = {
    "execution": ExecutionConfig,
    "resilience": ResilienceConfig,
    "observability": ObservabilityConfig,
}
#: Field names per config, computed once: every layer that needs "the
#: options" (keyword routing, the wire format) reads these.
_FIELDS = {
    group: tuple(f.name for f in dataclasses.fields(cls))
    for group, cls in _CONFIGS.items()
}
_GROUP_OF = {name: group for group, names in _FIELDS.items() for name in names}
_WIRE_KEYS = ("schema", "scenario", "steps", "scenario_kw", *_CONFIGS)


def _known_keys(d: Mapping | None, known: tuple, where: str) -> dict:
    """``d`` as a dict, refusing keys outside ``known``: dropping a key
    nobody reads (a typo, a newer client) would run — and cache — a
    different workload than the sender described.  Missing keys are fine;
    they mean "the default"."""
    d = dict(d or {})
    unknown = sorted(d.keys() - known)
    if unknown:
        raise ValueError(
            f"unknown {where} field(s) {unknown}; known: {sorted(known)}"
        )
    return d


#: Backends whose results are bitwise-interchangeable (locked down by the
#: tier-1 differential suite); they share one cache identity.  ``"compiled"``
#: is deliberately absent — see :meth:`RunRequest.identity`.
_EQUIVALENT_BACKENDS = (None, "baseline", "fused")


def _backend_identity(backend: str | None) -> str | None:
    """Collapse bitwise-equivalent backends onto one identity value."""
    return None if backend in _EQUIVALENT_BACKENDS else backend


def _faults_identity(faults: Any) -> Any:
    """A JSON-able identity for the ``faults`` field (name or plan dict)."""
    if faults is None or isinstance(faults, str):
        return faults
    from .faults import FaultPlan

    if isinstance(faults, FaultPlan):
        return dataclasses.asdict(faults)
    raise TypeError(
        f"faults must be None, a preset name, or a FaultPlan; got "
        f"{type(faults).__name__}"
    )


def _faults_from_wire(value: Any) -> Any:
    if value is None or isinstance(value, str):
        return value
    from .faults import FaultPlan

    d = dict(value)
    for key in ("slow_ranks", "crashes"):
        if key in d:
            d[key] = tuple(tuple(pair) for pair in d[key])
    return FaultPlan(**d)


@dataclass(frozen=True)
class RunRequest:
    """One complete, serializable description of a facade run.

    ``scenario`` is a registered name (``"jet"``, ``"advection"``, ...)
    and ``scenario_kw`` its constructor overrides.  Requests built from a
    live :class:`~repro.scenarios.Scenario` object (via
    :meth:`from_run_args`) carry it in ``scenario_obj``; they execute and
    fingerprint fine in-process but refuse :meth:`to_dict` (an ad-hoc
    scenario cannot cross a wire).
    """

    scenario: str
    steps: int | None = None
    scenario_kw: Mapping[str, Any] = field(default_factory=dict)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )
    scenario_obj: Any = field(default=None, compare=False, repr=False)
    """In-process only: a pre-built Scenario overriding name resolution."""
    platform_obj: Any = field(default=None, compare=False, repr=False)
    """In-process only: a live Platform object (ad-hoc machine models)."""

    # -- construction --------------------------------------------------------

    @classmethod
    def from_run_args(
        cls, scenario, *, steps: int | None = None, **options
    ) -> "RunRequest":
        """Build a request from :func:`repro.api.run`'s keyword surface.

        Each keyword goes to the config whose dataclass fields name it;
        anything else is a scenario constructor override (``nx=...``), so a
        misspelt option still ends as that constructor's ``TypeError``.
        """
        from .scenarios import Scenario

        grouped: dict[str, dict] = {group: {} for group in _CONFIGS}
        scenario_kw: dict[str, Any] = {}
        for name, value in options.items():
            grouped.get(_GROUP_OF.get(name), scenario_kw)[name] = value
        scenario_obj = None
        if isinstance(scenario, Scenario):
            if scenario_kw:
                raise TypeError(
                    "scenario keyword arguments "
                    f"{sorted(scenario_kw)} are only valid when the scenario "
                    "is given by name; pass them to the scenario constructor "
                    "instead"
                )
            scenario_obj = scenario
            scenario = scenario.name or "scenario"
        platform_obj = None
        ex = grouped["execution"]
        platform = ex.get("platform")
        if platform is not None and not isinstance(platform, str):
            platform_obj = platform
            ex["platform"] = getattr(platform, "name", str(platform))
        return cls(
            scenario=scenario,
            steps=steps,
            scenario_kw=scenario_kw,
            scenario_obj=scenario_obj,
            platform_obj=platform_obj,
            **{group: _CONFIGS[group](**kw) for group, kw in grouped.items()},
        )

    # -- routing helpers -----------------------------------------------------

    @property
    def mode(self) -> str:
        """``"serial"``, ``"parallel"`` or ``"simulated"`` (derived)."""
        if self.execution.platform is not None:
            return "simulated"
        return "serial" if self.execution.nprocs == 1 else "parallel"

    def resolve_scenario(self):
        """The live :class:`~repro.scenarios.Scenario` this request runs."""
        if self.scenario_obj is not None:
            return self.scenario_obj
        from .scenarios import scenario_by_name

        return scenario_by_name(self.scenario, **dict(self.scenario_kw))

    def resolve_platform(self):
        """The live Platform for the simulated route (or ``None``)."""
        if self.platform_obj is not None:
            return self.platform_obj
        if self.execution.platform is None:
            return None
        from .machines.platforms import platform_by_name

        return platform_by_name(self.execution.platform)

    # -- identity ------------------------------------------------------------

    def identity(self) -> dict:
        """The normalized workload identity behind :meth:`fingerprint`.

        Route-irrelevant fields are nulled out so e.g. a serial run's
        identity does not vary with ``decomposition=`` or ``faults=``;
        observability and ``timeout`` never appear.  ``decomposition`` (and
        ``px``/``pr``) is nulled even on the parallel route, so the result
        cache dedupes across block grids.  That is sound where every
        ``px x pr`` grid reproduces the serial state bit for bit, which the
        equivalence lattice (``tests/test_lattice.py``) enforces for the
        axisymmetric jet and for planar non-periodic runs, on states whose
        every interface carries signal; a grid that would split a periodic
        axis — the one case that used to return a different state without
        an error — is refused before it runs, so no such result can reach
        the cache.
        ``substrate`` stays in the parallel identity because per-rank
        statistics and wall-clock observables differ across substrates.
        ``backend`` is normalized the same way: ``None``/``"baseline"``/
        ``"fused"`` collapse to one identity (bitwise-equal by the same
        lattice), while ``"compiled"`` stays distinct — its
        bitwise guarantee is per-platform and it may fall back to
        ``"fused"`` where no engine is available, so its results are not
        universally interchangeable.
        """
        ex, rz = self.execution, self.resilience
        mode = self.mode
        parallel = mode == "parallel"
        simulated = mode == "simulated"
        ident: dict[str, Any] = {
            "schema": REQUEST_SCHEMA,
            "scenario": self.scenario,
            "scenario_kw": dict(sorted(dict(self.scenario_kw).items())),
            "steps": self.steps,
            "mode": mode,
            "nprocs": ex.nprocs,
            "platform": ex.platform,
            "substrate": ex.substrate if parallel else None,
            "decomposition": None,  # route-irrelevant: results are bitwise-equal
            "px": None,
            "pr": None,
            "version": ex.version if (parallel or simulated) else None,
            "backend": _backend_identity(ex.backend) if not simulated else None,
            "steps_window": ex.steps_window if simulated else None,
            "faults": _faults_identity(rz.faults) if mode != "serial" else None,
            "fault_seed": rz.fault_seed if mode != "serial" else None,
            "checkpoint_every": rz.checkpoint_every if parallel else 0,
            "max_restarts": rz.max_restarts if parallel else None,
        }
        if self.scenario_obj is not None:
            # Ad-hoc scenarios: the name alone may not pin the setup.
            sc = self.scenario_obj
            ident["adhoc_grid"] = [sc.grid.nx, sc.grid.nr]
            ident["adhoc_viscous"] = sc.config.viscous
        return ident

    def fingerprint(self) -> str:
        """Short stable hash of :meth:`identity` — the cache key.

        A pure function of the request: equal across processes, machines
        and sessions for equal configurations.
        """
        return config_fingerprint(**self.identity())

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Wire form (plain JSON-able dict); round-trips via
        :meth:`from_dict`.  Raises ``ValueError`` for requests carrying
        live scenario/platform objects."""
        if self.scenario_obj is not None:
            raise ValueError(
                "a RunRequest built from a live Scenario object is not "
                "serializable; build it from a registered scenario name"
            )
        if self.platform_obj is not None:
            raise ValueError(
                "a RunRequest carrying a live Platform object is not "
                "serializable; use a registered platform name"
            )
        wire = {
            "schema": REQUEST_SCHEMA,
            "scenario": self.scenario,
            "steps": self.steps,
            "scenario_kw": dict(self.scenario_kw),
        }
        for group in ("execution", "resilience"):
            config = getattr(self, group)
            wire[group] = {name: getattr(config, name) for name in _FIELDS[group]}
        wire["resilience"]["faults"] = _faults_identity(self.resilience.faults)
        wire["observability"] = self.observability.to_dict()
        return wire

    @classmethod
    def from_dict(cls, d: Mapping) -> "RunRequest":
        """Inverse of :meth:`to_dict`.  A missing key means "the default";
        an unknown key (top level or inside a config) is a ``ValueError``."""
        schema = d.get("schema", REQUEST_SCHEMA)
        if schema != REQUEST_SCHEMA:
            raise ValueError(
                f"unknown request schema {schema!r} "
                f"(expected {REQUEST_SCHEMA!r})"
            )
        d = _known_keys(d, _WIRE_KEYS, "request")
        configs = {
            group: _known_keys(d.get(group), _FIELDS[group], group)
            for group in _CONFIGS
        }
        rz = configs["resilience"]
        if "faults" in rz:
            rz["faults"] = _faults_from_wire(rz["faults"])
        return cls(
            scenario=d["scenario"],
            steps=d.get("steps"),
            scenario_kw=dict(d.get("scenario_kw") or {}),
            **{group: _CONFIGS[group](**kw) for group, kw in configs.items()},
        )

    def replace(self, **changes) -> "RunRequest":
        """A copy with top-level fields replaced (dataclass semantics)."""
        return dataclasses.replace(self, **changes)
