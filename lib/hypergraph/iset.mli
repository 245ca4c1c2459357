(** Sets of integers (fact ids, vertex ids), shared across the libraries. *)

include Set.S with type elt = int

val pp : Format.formatter -> t -> unit
(** [{1,2,3}]-style rendering. *)

val mix : int -> int
(** The fixed per-element term of {!hash}: a deterministic bit mix of the
    element, the same in every process. *)

val hash : t -> int
(** The xor of {!mix} over the elements. It depends on the content only,
    never on the tree's shape, and a caller that grows a set one element
    at a time can carry it along: [hash (add x s) = hash s lxor mix x] for
    [x] not in [s]. Distinct sets can share a hash (any 64 elements have a
    subset whose mixes xor to 0), so a hash match proves nothing until the
    contents are compared. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by set {e content}: keys are compared with {!equal}
    and hashed with {!hash}. A polymorphic [Hashtbl] is wrong for sets:
    the balanced tree's shape depends on the insertion order, so two equal
    sets can compare unequal structurally, and the generic hash reads only
    a bounded prefix of the tree. *)
