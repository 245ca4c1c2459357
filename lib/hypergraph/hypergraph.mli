(** Hypergraphs, hitting sets, and the condensation rules of Section 4.3.

    The hypergraph of matches [H_{L,D}] has one vertex per fact of the
    database and one hyperedge per match (fact set of an L-walk);
    [RES_set(Q_L, D)] equals its minimum hitting set (Definition 4.7). *)

module Iset = Iset
(** Sets of integers (fact ids / vertex ids), shared across the libraries,
    with an order-free hash and content-keyed tables (see [iset.mli]). *)

type t
(** An immutable hypergraph over integer vertices. *)

val make : vertices:int list -> edges:int list list -> t
(** Vertices are arbitrary integers; each edge is the list of its vertices
    (deduplicated; edges must only use declared vertices).
    @raise Invalid_argument if an edge uses an undeclared vertex. *)

val vertices : t -> int list
(** Sorted, duplicate-free. *)

val edges : t -> int list list
(** Each edge sorted; the edge list is sorted and duplicate-free. *)

val edge_count : t -> int
val vertex_count : t -> int
val pp : Format.formatter -> t -> unit

val unsafe_make : vertices:int list -> edges:int list list -> t
(** {!make} without the undeclared-vertex check and without edge
    normalization. Only for tests of {!validate} and trusted
    deserialization paths. *)

val validate : t -> (unit, Invariant.violation list) result
(** Machine-checks that every edge only uses declared vertices and that the
    edge list is strictly sorted and duplicate-free (the normalization the
    condensation rules rely on). *)

(** {1 Condensation (Section 4.3)} *)

val condense : ?protected:int list -> t -> t
(** Applies the two condensation rules to a fixpoint:
    {ul
    {- {b edge-domination}: remove an edge that strictly contains another
       edge;}
    {- {b node-domination}: remove a vertex [v] when some other vertex [v']
       has [E(v) ⊆ E(v')].}}
    Vertices in [protected] are never removed by node-domination (the
    endpoint facts of gadget completions, cf. the proof of Claim C.1).
    By Claim 4.8 the minimum hitting-set size is preserved. *)

type step =
  | Removed_edge of int list
      (** an edge deleted by edge-domination (it contained another edge) *)
  | Removed_vertex of int * int
      (** [Removed_vertex (v, v')]: v deleted by node-domination, dominated
          by v' *)

val condense_trace : ?protected:int list -> t -> t * step list
(** Like {!condense} but also returns the sequence of rule applications, in
    order — the narrative style of the paper's Appendix C.6. *)

val pp_step : Format.formatter -> step -> unit

val is_odd_path : t -> src:int -> dst:int -> bool
(** Does the hypergraph consist only of size-2 edges forming a simple path
    from [src] to [dst] with an odd number of edges (Definition 4.9's odd
    path)? Isolated vertices are tolerated (they never constrain hitting
    sets). *)

val path_endpoints_length : t -> (int * int * int) option
(** If the non-isolated part of the hypergraph is a simple path of size-2
    edges, returns [(endpoint, endpoint, length)]. *)

(** {1 Hitting sets} *)

val min_hitting_set : ?weights:(int -> int) -> ?fuel:(unit -> unit) -> t -> int * int list
(** Exact minimum-weight hitting set by branch and bound on a condensed copy
    (default weight 1 per vertex). Returns the optimal weight and a witness.
    [fuel] is called once per branch node; it may raise (e.g.
    [Resilience.Budget.Exhausted]) to abort an over-budget search — the
    exception propagates unchanged. If some edge is empty, no hitting set
    exists:
    @raise Invalid_argument in that case. *)

val greedy_hitting_set : ?weights:(int -> int) -> t -> int * int list
(** Polynomial greedy upper bound: repeatedly takes the vertex covering the
    most still-unhit edges per unit weight. The returned set hits every edge
    (it is a certified upper bound on {!min_hitting_set}, within the
    classical [H_d] approximation factor), and the returned weight is the
    exact weight of that set.
    @raise Invalid_argument if some edge is empty. *)

val min_hitting_set_bruteforce : ?weights:(int -> int) -> t -> int
(** Reference implementation enumerating all vertex subsets; exponential,
    for tests only. *)

val all_min_hitting_sets : ?weights:(int -> int) -> t -> int * Iset.t list
(** The optimal weight together with {e every} inclusion-wise distinct
    minimum-weight hitting set (restricted to vertices that occur in some
    edge — vertices outside all edges never help). Exponential output in the
    worst case; intended for analysis of small instances.
    @raise Invalid_argument if some edge is empty. *)
