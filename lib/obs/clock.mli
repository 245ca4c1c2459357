(** The clock of the telemetry layer and of solver budgets.

    Everything in the repository that reads a clock goes through this
    module (or through [lib/runner], which owns its own wall-clock calls
    for supervision timeouts) — enforced by the [clock-outside-obs] lint
    rule, so CPU time can never again be mistaken for wall time the way
    the original [bench/main.ml:time_it] did. *)

val now : unit -> float
(** Monotonically non-decreasing wall-clock seconds: the system clock
    behind a max guard, so differences are never negative even across a
    backwards clock step. Use for spans, latencies, and benchmarks. *)
