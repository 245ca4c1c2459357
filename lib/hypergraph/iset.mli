(** Sets of integers (fact ids, vertex ids), shared across the libraries. *)

include Set.S with type elt = int

val pp : Format.formatter -> t -> unit
(** [{1,2,3}]-style rendering. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by set {e content}: keys are compared with {!equal}
    and hashed over every element. A polymorphic [Hashtbl] is wrong for
    sets: the balanced tree's shape depends on the insertion order, so two
    equal sets can compare unequal structurally, and the generic hash reads
    only a bounded prefix of the tree. *)
