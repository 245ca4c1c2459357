(** Flow networks with integer capacities and +∞ edges.

    The paper reduces resilience to MinCut on networks whose fact-edges carry
    the fact multiplicities and whose structural edges have capacity +∞
    (Theorem 3.3, Proposition 7.5). *)

type capacity = Finite of int | Inf

val cap_compare : capacity -> capacity -> int
val pp_capacity : Format.formatter -> capacity -> unit

type t
(** A mutable network under construction. Vertices are integers allocated by
    {!add_vertex}; parallel edges are allowed. *)

val create : unit -> t
val add_vertex : t -> int
val vertex_count : t -> int

val add_edge : t -> src:int -> dst:int -> capacity -> int
(** Adds a directed edge and returns its edge id (ids are dense from 0). *)

val unsafe_add_edge : t -> src:int -> dst:int -> capacity -> int
(** {!add_edge} without the range and non-negativity checks. Only for tests
    of {!validate} and trusted deserialization paths. *)

val edge_count : t -> int

val edge_info : t -> int -> int * int * capacity
(** [(src, dst, capacity)] of an edge id, in O(1): edges are stored in
    insertion order in fixed-size chunks behind a growable directory.
    Raises [Invalid_argument] for an id outside [\[0, edge_count t)]. *)

val pp : Format.formatter -> t -> unit

(** {1 Max-flow / min-cut} *)

type cut = { value : capacity; edges : int list }
(** A minimum cut: its total capacity and the ids of the cut edges (edges
    from the source side to the sink side; only returned when the value is
    finite). *)

val min_cut : t -> source:int -> sink:int -> cut
(** Dinic's algorithm. When the cut value is [Inf] (the sink is not
    separable by finite-capacity edges), [edges] is []. *)

val min_cut_certified : t -> source:int -> sink:int -> cut * int array
(** Like {!min_cut}, but also returns the per-edge flow values of the
    computed maximum flow. When the cut is finite, the pair is a
    self-certifying optimality proof: feed it to {!validate_certificate}
    (weak duality: a feasible flow and a cut of equal value are both
    optimal). When the cut is [Inf] the flow array reflects the internal
    finite encoding and certifies nothing. *)

val max_flow_value : t -> source:int -> sink:int -> capacity

(** {1 Invariant validation}

    See the "Correctness tooling" section of DESIGN.md. These back the
    {!Resilience.Check} levels: [validate] is cheap (linear), the
    certificate checks are for paranoid mode. *)

val validate : t -> (unit, Invariant.violation list) result
(** Structural invariants: endpoint ranges, non-negative finite capacities,
    edge-count accounting. Networks built through {!add_vertex}/{!add_edge}
    always validate. *)

val validate_flow :
  t -> source:int -> sink:int -> flow:int array -> value:int ->
  (unit, Invariant.violation list) result
(** Feasibility of a flow vector: one value per edge, [0 ≤ flow ≤ capacity],
    conservation at every vertex other than [source]/[sink], and net outflow
    at the source (= net inflow at the sink) equal to [value]. *)

val validate_cut :
  t -> source:int -> sink:int -> cut -> (unit, Invariant.violation list) result
(** A finite cut must consist of distinct finite-capacity edge ids whose
    capacities sum to the claimed value and whose removal disconnects
    [source] from [sink] in the positive-capacity subgraph; an [Inf] cut
    must report no edges. *)

val validate_certificate :
  t -> source:int -> sink:int -> cut -> flow:int array ->
  (unit, Invariant.violation list) result
(** Conjunction of {!validate_cut} and {!validate_flow} at the cut's value:
    by weak duality a passing pair proves the cut minimum and the flow
    maximum. *)
