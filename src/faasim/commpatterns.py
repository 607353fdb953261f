"""Message and traffic counting for standard communication patterns.

Counts remote messages for broadcast, aggregation, and shuffle under two
deployment granularities:

* vm-grouped: K tasks co-located per instance may combine traffic, so
  the communicating parties are the N instances.
* function-grained: every task is its own single-slot instance, so the
  parties are all N*K functions.

Counting convention: a message is attributed per communicating party
(broadcast/aggregation) or per ordered party pair (shuffle). Shuffle
counts include a party's transfer to itself, giving exactly N^2 and
(N*K)^2; intra-instance delivery is otherwise free.
"""

from __future__ import annotations

from .record import Record

# No generator, here or in `workloads`, makes more tasks, edges, trace entries or scenarios than this; each refuses
# a larger output with `check_budget`.
MATERIALIZE_EDGE_LIMIT = 10**7

PATTERNS = frozenset({"broadcast", "aggregation", "shuffle"})
GRANULARITIES = frozenset({"vm-grouped", "function-grained"})


class ScenarioError(ValueError):
    pass


def check_budget(elements: int, what: str) -> None:
    if elements > MATERIALIZE_EDGE_LIMIT:
        raise ValueError(f"{elements} {what} exceed the generator limit of {MATERIALIZE_EDGE_LIMIT} elements")


class Deployment(Record):
    """N instances, each hosting K functions, at a message granularity."""

    n_instances: int
    functions_per_instance: int
    granularity: str

    def __post_init__(self):
        if self.n_instances < 1:
            raise ScenarioError(f"need at least one instance, got {self.n_instances}")
        if self.functions_per_instance < 1:
            raise ScenarioError(f"need at least one function per instance, got {self.functions_per_instance}")
        if self.granularity not in GRANULARITIES:
            raise ScenarioError(f"unknown granularity {self.granularity!r}")

    @property
    def parties(self) -> int:
        """Independent communicating endpoints under this granularity."""
        if self.granularity == "vm-grouped":
            return self.n_instances
        return self.n_instances * self.functions_per_instance


class CommScenario(Record):
    pattern: str
    deployment: Deployment
    payload_bytes: int

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ScenarioError(f"unknown pattern {self.pattern!r}")
        if self.payload_bytes < 0:
            raise ScenarioError("payload must be non-negative")


def remote_messages(scenario: CommScenario) -> int:
    """Messages crossing the network for one round of the pattern."""
    parties = scenario.deployment.parties
    if scenario.pattern == "shuffle":
        return parties * parties
    return parties


def traffic_overhead_ratio(pattern: str, functions_per_instance: int) -> int:
    """Function-grained traffic relative to vm-grouped: K, or K^2 for shuffle."""
    if pattern not in PATTERNS:
        raise ScenarioError(f"unknown pattern {pattern!r}")
    if functions_per_instance < 1:
        raise ScenarioError("functions per instance must be at least 1")
    if pattern == "shuffle":
        return functions_per_instance**2
    return functions_per_instance


def remote_traffic_bytes(scenario: CommScenario) -> int:
    return remote_messages(scenario) * scenario.payload_bytes


def scenario_report(scenario: CommScenario) -> dict:
    """JSON-ready summary: {pattern, n, k, granularity, messages, bytes}."""
    return {
        "pattern": scenario.pattern,
        "n": scenario.deployment.n_instances,
        "k": scenario.deployment.functions_per_instance,
        "granularity": scenario.deployment.granularity,
        "messages": remote_messages(scenario),
        "bytes": remote_traffic_bytes(scenario),
    }


def gen_paramserver(workers: int, rounds: int, gradient_bytes: int) -> list[CommScenario]:
    """Training rounds as alternating aggregation/broadcast scenarios.

    Each round aggregates gradients from all workers into the parameter
    server, then broadcasts the updated model back out. Every worker is its
    own single-core function.
    """
    if workers < 1 or rounds < 1:
        raise ScenarioError("need at least one worker and one round")
    if gradient_bytes < 0:
        raise ScenarioError("gradient size must be non-negative")
    check_budget(2 * rounds, "parameter-server scenarios")
    deployment = Deployment(n_instances=workers, functions_per_instance=1, granularity="function-grained")
    # Every round is the same two immutable scenarios.
    return [CommScenario("aggregation", deployment, gradient_bytes),
            CommScenario("broadcast", deployment, gradient_bytes)] * rounds
