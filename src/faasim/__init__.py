"""faasim: cost and performance modeling for serverless vs serverful deployments.

The package exports nothing itself: import names from the submodules,
e.g. `from faasim.simcore import simulate`. By concern:

* `catalog` — priced compute/storage service models and unit-cost arithmetic
* `commpatterns` — message/traffic counts for broadcast, aggregation, shuffle; parameter-server rounds
* `shuffleplan` — staged shuffle planning and pricing through external storage
* `workloads` — task-DAG and invocation-trace generators, parallelism profiles
* `simcore` — discrete-event function-platform simulator and duty-cycle costs
* `placement` — communication-minimizing assignment of tasks to instances
* `money`, `units` — exact dollar amounts and the breakeven duty cycle, byte quantities
* `cli` — the `faasim` command; `cli_<command>` — its handlers
"""

__version__ = "0.1.0"
