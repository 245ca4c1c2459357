(** Work budgets for anytime solving.

    The dichotomy (Theorems 5.5 and 6.1) puts most languages on the NP-hard
    side, where {!Solver.solve} falls back to exponential algorithms
    (branch and bound, the ILP hitting-set solver). A budget bounds such a
    run by a wall-clock deadline, a step count (node expansions, simplex
    pivots, SFM oracle calls — every solver loop calls {!tick} once per unit
    of work), and a memory cap on memo/table sizes, so that a single
    adversarial query can never hang or OOM a worker. On exhaustion the
    solvers stop and {!Solver.solve_bounded} degrades to certified
    lower/upper bounds instead of an exact answer.

    A budget is a mutable single-use value: create one per solve call.
    Budgets created with {!create} also consult {!Faults} for a
    deterministic fault-injection tick (see [RPQ_FAULTS]); {!unlimited}
    budgets never exhaust and never fault, but still carry the default
    memory cap so the branch-and-bound memo table is bounded even with no
    deadline set. *)

type exhaustion =
  | Deadline  (** the wall-clock deadline passed *)
  | Steps  (** the step budget ran out *)
  | Memory  (** a table would exceed the memory cap *)
  | Fault  (** synthetic exhaustion injected by {!Faults} *)

val exhaustion_name : exhaustion -> string

exception Exhausted of exhaustion
(** Raised by {!tick} (and the [fuel] callbacks threaded into the lower
    solver layers) once the budget is exhausted; every later tick re-raises
    the same reason. [Solver.solve_bounded] catches it — it never escapes to
    the caller of the solver API. *)

type t

val unlimited : unit -> t
(** Never exhausts, never faults; carries {!default_memo_cap}. *)

val create : ?deadline:float -> ?steps:int -> ?memo_cap:int -> ?probe:(int -> unit) -> unit -> t
(** [create ~deadline ~steps ~memo_cap ()] starts a budget of [deadline]
    wall-clock seconds from now, [steps] ticks, and a memo cap of
    [memo_cap] entries (default {!default_memo_cap}). Omitted dimensions are
    unlimited. The current {!Faults} plan is consulted for a fault tick.
    The deadline is wall time, not processor time, so a worker whose
    deadline is a client's remaining wall budget runs out when the client
    expects, however many other processes share its CPU.

    [probe], when given, is called on every tick with the step count after
    all exhaustion checks (so a budget limit firing on the same tick
    preempts it) — the supervised-execution workers use it to implement the
    [kill:N]/[wedge:N] worker fault modes of {!Faults}. It may raise or
    never return; it must not call back into this budget. {!slice}s do not
    inherit the probe (their ticks reach it through the parent). *)

val default_memo_cap : int
(** Cap on memo/table entry counts applied even to unlimited budgets
    (a pathological instance must not OOM just because no deadline was
    set). *)

val tick : t -> unit
(** Counts one unit of work and raises {!Exhausted} if any dimension ran
    out. Cheap: the clock is only consulted every few dozen ticks. Ticking a
    {!slice} also ticks its parent, so a global budget is enforced across
    stages. *)

val fuel : t -> unit -> unit
(** [fuel b] is [fun () -> tick b], the form threaded into the budget-free
    lower layers ([Lp.Simplex], [Lp.Ilp], [Submodular.Sfm], [Hypergraph],
    [Graphdb.Eval]) as their [?fuel] argument. *)

val slice : t -> deadline_frac:float -> steps_frac:float -> t
(** A child budget limited to the given fractions of the parent's
    {e remaining} deadline and steps (fractions in (0, 1]). The degradation
    chain of [Solver.solve_bounded] gives each stage a slice so that an
    exhausted stage still leaves room for the cheaper fallbacks. Child ticks
    propagate to the parent; the child never faults on its own (faults are
    injected at the root, whatever stage happens to be running). *)

val memo_admit : t -> int -> bool
(** [memo_admit b size] — may a memo table currently holding [size] entries
    grow by one more? Never raises: on a full table the caller degrades to
    not memoizing (correct, possibly slower), not to failing. *)

val charge_memory : t -> int -> unit
(** [charge_memory b n] for materializing a table of [n] entries at once
    (e.g. the ILP cover matrix). Raises [Exhausted Memory] when [n] exceeds
    the memo cap. *)

type spent = {
  steps : int;  (** ticks consumed, including those of slices *)
  elapsed : float;  (** wall-clock seconds since creation *)
}

val spent : t -> spent

val exhaustion : t -> exhaustion option
(** Why this budget stopped, if it did. *)

val exhausted : t -> bool
