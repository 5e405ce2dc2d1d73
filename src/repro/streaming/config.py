"""The gateway's options, declared once.

Every scalar option of :class:`~repro.streaming.gateway.AlertGateway` is
a field of :class:`GatewayConfig`.  The constructor, the checkpoint
record (:meth:`~GatewayConfig.record` / :meth:`~GatewayConfig.from_record`
— a key an older checkpoint lacks takes the field default), the restore
drift check (:meth:`~GatewayConfig.drift`, over the fields marked
``strict``) and the ``stream``/``serve`` CLI flags are all derived from
the fields.  *Strict* fields shape the packed plane state, the flush
schedule the learner judges on, or the accounting a checkpoint carries;
the rest only change where work runs, so a restore may change them.
The graph, blocker and rulebook are the caller's static inputs:
constructor arguments, never recorded.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.validation import require_positive
from repro.core.antipatterns.base import DetectorThresholds
from repro.ml.sketch import DEFAULT_SKETCH_BUCKETS
from repro.streaming.learning import LearnerConfig

__all__ = ["GatewayConfig", "BACKEND_NAMES", "LANE_TRANSPORTS"]

BACKEND_NAMES = ("serial", "process")

#: Ingress-lane hand-off transports for the ``process`` backend:
#: ``ring`` writes encoded batches into per-(lane, worker) shared-memory
#: rings (zero-copy, the default); ``pipe`` ships them pickled over the
#: worker pipe (the PR-7 path, kept for comparison and as a fallback).
LANE_TRANSPORTS = ("ring", "pipe")

#: ``flush_size`` when left to default on the ``process`` backend
#: (``serial`` then processes each event immediately).
DEFAULT_BATCH_FLUSH = 512

#: Worker processes when ``n_workers`` is left to default.
DEFAULT_WORKERS = 4

#: Switches that feed the parent-side learner, QoA scorer and detectors;
#: the ``process`` backend refuses each of them.
_OBSERVING = ("learn_rules", "enable_qoa", "detect_antipatterns")

#: Fields recorded as the ``asdict`` of a nested dataclass.
_NESTED = {"learner_config": LearnerConfig, "detector_thresholds": DetectorThresholds}


def _option(default, strict: bool, choices: tuple[str, ...] | None = None):
    return field(default=default, metadata={"strict": strict, "choices": choices})


@dataclass(frozen=True)
class GatewayConfig:
    """Every scalar gateway option, its default, and whether it is strict.

    ``vars(config)`` is the keyword form ``AlertGateway`` accepts.
    """

    n_planes: int = _option(1, strict=True)
    aggregation_window: float = _option(900.0, strict=True)
    correlation_window: float = _option(900.0, strict=True)
    correlation_max_hops: int = _option(4, strict=True)
    enable_storm_detection: bool = _option(True, strict=True)
    retain_artifacts: bool = _option(True, strict=True)
    finalize_every: int = _option(256, strict=True)
    backend: str = _option("serial", strict=True, choices=BACKEND_NAMES)
    n_workers: int | None = _option(None, strict=False)
    flush_size: int | None = _option(None, strict=True)
    flush_interval: float | None = _option(None, strict=True)
    learn_rules: bool = _option(False, strict=True)
    learner_config: LearnerConfig | None = _option(None, strict=False)
    enable_qoa: bool = _option(False, strict=True)
    detect_antipatterns: bool = _option(False, strict=True)
    # Strict: the transient cut-off shapes the learner's observation
    # rows, and the thresholds shape every detector row and verdict.
    detector_thresholds: DetectorThresholds | None = _option(None, strict=True)
    sketch_buckets: int = _option(DEFAULT_SKETCH_BUCKETS, strict=False)
    ingress_lanes: int = _option(1, strict=False)
    lane_transport: str = _option("ring", strict=False, choices=LANE_TRANSPORTS)
    # Parent-side wait for a worker reply before declaring a wedge.
    worker_timeout: float = _option(30.0, strict=False)

    def __post_init__(self) -> None:
        for spec in dataclasses.fields(self):
            choices, value = spec.metadata["choices"], getattr(self, spec.name)
            if choices is not None and value not in choices:
                raise ValidationError(
                    f"unknown {spec.name.replace('_', ' ')} {value!r}; "
                    f"expected one of {', '.join(choices)}"
                )
        for name in (
            "n_planes", "finalize_every", "ingress_lanes", "flush_size",
            "flush_interval", "n_workers", "worker_timeout",
        ):
            if getattr(self, name) is not None:
                require_positive(getattr(self, name), name)
        if self.backend == "process":
            # Learning, QoA and detection fold in the parent process, so
            # workers would only add encode and transport cost to them.
            for name in _OBSERVING:
                if getattr(self, name):
                    raise ValidationError(
                        f"{name} runs on the serial backend only; the "
                        f"process backend parallelises just the plane chain"
                    )
        # Normalised so equal configurations compare (and record) equal:
        # the thresholds a gateway runs when none are given, and a
        # learner config exactly where there is a learner.
        if self.detector_thresholds is None:
            object.__setattr__(self, "detector_thresholds", DetectorThresholds())
        learner_config = self.learner_config or LearnerConfig()
        object.__setattr__(
            self, "learner_config", learner_config if self.learn_rules else None,
        )

    @property
    def requested_workers(self) -> int:
        """The worker count asked for, before clamping to the planes."""
        return DEFAULT_WORKERS if self.n_workers is None else self.n_workers

    def resolved(self) -> GatewayConfig:
        """This configuration with the effective values a gateway runs.

        The default ``flush_size`` filled in, workers and ingress lanes
        clamped to the plane count — what a fresh gateway built from it
        would record.  ``serial`` has one worker and one lane, the
        caller: lane threads under the GIL only slow it down.
        """
        serial = self.backend == "serial"
        return dataclasses.replace(
            self,
            flush_size=self.flush_size or (1 if serial else DEFAULT_BATCH_FLUSH),
            n_workers=1 if serial else min(self.requested_workers, self.n_planes),
            ingress_lanes=1 if serial else min(self.ingress_lanes, self.n_planes),
        )

    def record(self) -> dict:
        """The JSON-safe record form every checkpoint carries."""
        return dataclasses.asdict(self)

    @classmethod
    def from_record(cls, record: dict) -> GatewayConfig:
        """Rebuild from :meth:`record` output; absent keys take defaults."""
        names = {spec.name for spec in dataclasses.fields(cls)}
        options = {name: record[name] for name in names & set(record)}
        for name, nested in _NESTED.items():
            if options.get(name) is not None:
                options[name] = nested(**options[name])
        return cls(**options)

    def drift(self, requested: GatewayConfig) -> dict[str, tuple]:
        """Strict fields on which ``requested`` differs: ``{name: (have, want)}``."""
        return {
            spec.name: (getattr(self, spec.name), getattr(requested, spec.name))
            for spec in dataclasses.fields(self)
            if spec.metadata["strict"]
            and getattr(self, spec.name) != getattr(requested, spec.name)
        }
