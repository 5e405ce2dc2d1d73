"""repro — alert anti-pattern characterisation and mitigation.

A from-scratch reproduction of *"Characterizing and Mitigating
Anti-patterns of Alerts in Industrial Cloud Systems"* (DSN 2022): a
synthetic cloud substrate (topology, telemetry, faults, alerting engine,
OCE simulation), detectors for the paper's six alert anti-patterns, the
four mitigation reactions, and the Quality-of-Alerts framework.

Quickstart
----------
>>> from repro import generate_topology, generate_trace, run_mining_pipeline
>>> topology = generate_topology()
>>> trace = generate_trace(topology=topology)
>>> report = run_mining_pipeline(trace, topology.graph)
>>> sorted(report.individual_patterns_found + report.collective_patterns_found)
['A1', 'A2', 'A3', 'A4', 'A5', 'A6']

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.alerting import (
    Alert,
    AlertBook,
    AlertState,
    AlertStrategy,
    MonitoringEngine,
    Severity,
    SOPLibrary,
    StrategyQuality,
)
from repro.core.antipatterns import (
    AntiPatternFinding,
    CascadingAlertsDetector,
    DetectorThresholds,
    ImproperRuleDetector,
    MisleadingSeverityDetector,
    RepeatingAlertsDetector,
    TransientTogglingDetector,
    UnclearTitleDetector,
    detect_storms,
    run_mining_pipeline,
)
from repro.core.mitigation import (
    AlertAggregator,
    AlertBlocker,
    CorrelationAnalyzer,
    EmergingAlertDetector,
    MitigationPipeline,
)
from repro.core.governance import GuidelineChecker, PeriodicReview
from repro.streaming import AlertGateway, GatewayStats, drive_gateway
from repro.core.incidents import Incident, IncidentEscalator
from repro.core.qoa import QoAModel, evaluate_qoa_pipeline, measure_qoa
from repro.faults import CascadeModel, FaultInjector, FaultKind
from repro.oce import OCETeam, ProcessingModel, SurveyInstrument, build_panel
from repro.telemetry import TelemetryHub
from repro.topology import CloudTopology, TopologyConfig, generate_topology
from repro.workload import (
    AlertTrace,
    TraceConfig,
    TraceScale,
    build_representative_storm,
    generate_trace,
)

__version__ = "1.0.0"

__all__ = [
    # substrate
    "CloudTopology",
    "TopologyConfig",
    "generate_topology",
    "TelemetryHub",
    "FaultInjector",
    "FaultKind",
    "CascadeModel",
    "Alert",
    "AlertState",
    "AlertStrategy",
    "StrategyQuality",
    "Severity",
    "AlertBook",
    "MonitoringEngine",
    "SOPLibrary",
    "OCETeam",
    "ProcessingModel",
    "SurveyInstrument",
    "build_panel",
    # workload
    "AlertTrace",
    "TraceConfig",
    "TraceScale",
    "generate_trace",
    "build_representative_storm",
    # core: anti-patterns
    "AntiPatternFinding",
    "DetectorThresholds",
    "UnclearTitleDetector",
    "MisleadingSeverityDetector",
    "ImproperRuleDetector",
    "TransientTogglingDetector",
    "RepeatingAlertsDetector",
    "CascadingAlertsDetector",
    "detect_storms",
    "run_mining_pipeline",
    # core: mitigation
    "AlertBlocker",
    "AlertAggregator",
    "CorrelationAnalyzer",
    "EmergingAlertDetector",
    "MitigationPipeline",
    # streaming gateway
    "AlertGateway",
    "GatewayStats",
    "drive_gateway",
    # core: governance & incidents
    "GuidelineChecker",
    "PeriodicReview",
    "Incident",
    "IncidentEscalator",
    # core: QoA
    "QoAModel",
    "measure_qoa",
    "evaluate_qoa_pipeline",
    "__version__",
]
