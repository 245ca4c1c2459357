(** Graph databases (Section 2 of the paper).

    A graph database over Σ is a set of labeled edges ("facts")
    [v --a--> v'], optionally with multiplicities (bag semantics: the
    multiplicity of a fact is the cost of removing it). Nodes and fact ids
    are dense integers; a name-based builder is provided for examples.

    Removing facts ({!restrict}) keeps the id space intact and marks facts
    dead, so fact ids remain stable across sub-databases — this is what the
    resilience solvers rely on to report contingency sets. *)

type fact = { src : int; label : char; dst : int }

type t
(** Immutable database. Fact ids are [0 .. fact_count - 1]; some may be dead
    in a restriction. *)

val make : nnodes:int -> facts:(int * char * int) list -> t
(** Set database: every fact has multiplicity 1. Duplicate facts are merged.
    @raise Invalid_argument on out-of-range nodes. *)

val make_bag : nnodes:int -> facts:(int * char * int * int) list -> t
(** Bag database: [(src, label, dst, multiplicity)] with multiplicity ≥ 1.
    Duplicate facts have their multiplicities added. *)

val of_columns :
  nnodes:int -> src:int array -> label:Bytes.t -> dst:int array -> mult:int array -> int -> t
(** [of_columns ~nnodes ~src ~label ~dst ~mult n] is {!make_bag} of the
    first [n] entries of parallel columns, entry [i] being the fact
    [src.(i) --label[i]--> dst.(i)] of multiplicity [mult.(i)]: for
    parsers, which can grow columns without a list of tuples. *)

val nnodes : t -> int

val fact_count : t -> int
(** Size of the fact id space (live and dead facts). *)

val live_count : t -> int
val is_live : t -> int -> bool
val fact : t -> int -> fact
val mult : t -> int -> int
(** Multiplicity (removal cost) of a fact id. *)

val total_mult : t -> int
(** Sum of multiplicities of the live facts. *)

val facts : t -> (int * fact) list
(** Live [(id, fact)] pairs in id order. *)

val alphabet : t -> Automata.Cset.t
(** Letters used by the live facts. *)

val out_edges : t -> int -> (int * fact) list
(** Outgoing live facts of a node, as [(id, fact)]. *)

val is_acyclic : t -> bool
(** No directed cycle among live facts (every walk is then a simple path). *)

val restrict : t -> removed:(int -> bool) -> t
(** Sub-database marking the selected live facts dead. *)

val remove : t -> int list -> t
(** Convenience: {!restrict} by an explicit id list. *)

val with_unit_mults : t -> t
(** Same facts, all multiplicities forced to 1 (set-semantics view). *)

val reverse : t -> t
(** Reverses the direction of every fact (Proposition E.1's reduction). *)

val unsafe_make_bag : nnodes:int -> facts:(int * char * int * int) list -> t
(** {!make_bag} without range/multiplicity checks and without duplicate
    merging. Only for tests of {!validate} and trusted deserialization
    paths; out-of-range {e source} nodes are silently dropped from the
    adjacency index (so that even corrupt inputs build a value to
    validate). *)

val validate : t -> (unit, Invariant.violation list) result
(** Machine-checks the database invariants: parallel array lengths, node
    ranges of every fact, multiplicities ≥ 1, canonical fact order, and the
    outgoing-edge index being in sync with the alive mask (which {!restrict}
    and the solvers rely on). *)

val pp : Format.formatter -> t -> unit

(** {1 Name-based builder} *)

module Builder : sig
  type db = t
  type t

  val create : unit -> t

  val node : t -> string -> int
  (** Returns (creating if needed) the node with this name. *)

  val add : t -> ?mult:int -> string -> char -> string -> unit
  (** [add b "u" 'a' "v"] adds the fact [u --a--> v]. *)

  val add_word_path : t -> string -> Automata.Word.t -> string -> unit
  (** [add_word_path b "u" "abc" "v"] adds a chain of fresh intermediate
      nodes spelling the word from [u] to [v]; with the empty word, [u] and
      [v] must be the same node. *)

  val build : t -> db
end
