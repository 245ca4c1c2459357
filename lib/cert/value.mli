(** Resilience values.

    The resilience of [Q] on [D] is the minimum total multiplicity of a
    contingency set (Definition 2.1); it is [+∞] exactly when every
    sub-database satisfies [Q], i.e. when ε ∈ L for RPQs.

    The type lives in the dependency-free [cert] library so {!Proto}
    and {!Checker} can speak about values without linking the solver
    stack; the solvers use it from here too. *)

type t = Finite of int | Infinite

val zero : t
val add : t -> t -> t
val min : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
