(** Runtime invariant-checking configuration.

    The solvers machine-check their inputs and the certificates they
    produce (MinCut certificates, SFM oracles, ILP covers) through the
    [validate] functions of the underlying libraries. How much of that runs
    is controlled here:

    {ul
    {- [Off] (default): no validation — production mode, zero overhead;}
    {- [Cheap]: linear-time structural validation of solver inputs;}
    {- [Paranoid]: additionally re-verify the produced certificates
       (flow/cut weak-duality proofs, cross-check Dinic against
       push-relabel, sampled submodularity of SFM oracles, ILP cover
       feasibility) — intended for tests, e.g.
       [RPQ_CHECK=paranoid dune runtest].}}

    The initial level is read from the [RPQ_CHECK] environment variable
    ([off] / [cheap] / [paranoid], case-insensitive; [0]/[1]/[2] also
    work). An unrecognized value enables [Cheap]. A detected violation
    raises {!Invariant.Internal_error} — the point is to crash loudly
    instead of returning a silently wrong resilience value. *)

type level = Off | Cheap | Paranoid

val of_string : string -> level option
val level_name : level -> string

val level : unit -> level
(** The current level ([RPQ_CHECK] at startup unless overridden). *)

val set_level : level -> unit

val with_level : level -> (unit -> 'a) -> 'a
(** Runs the thunk under the given level, restoring the previous level
    afterwards (also on exceptions). *)

val cheap : string -> (unit -> (unit, Invariant.violation list) result) -> unit
(** [cheap what validate] runs the validator unless the level is [Off] and
    raises {!Invariant.Internal_error} naming [what] on violations. *)

val paranoid : string -> (unit -> (unit, Invariant.violation list) result) -> unit
(** Like {!cheap}, but only at level [Paranoid]. *)
