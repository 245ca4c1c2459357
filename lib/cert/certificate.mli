(** Portable answer certificates.

    Every settled reply (and every classification record) can carry a
    certificate: a self-contained object from which an independent checker
    re-derives the validity of the claimed answer without running — or
    even linking — any solver code. The variants mirror the dichotomy
    ladder of the paper:

    - {!Cut}: weak-duality data for the PTIME mincut cases (Thm 3.3
      product network for local languages, Prop 7.5 network for
      bipartite-chain-local ones). It serializes the flow network, a
      feasible flow, and an s-t cut of equal value; feasibility of the
      flow plus equality of the two values proves both optimal, so the
      claimed resilience and witness follow. An infinite answer is
      certified by an all-[Inf]-capacity s-t path ([inf_path]) instead —
      every cut must sever it, so no finite cut exists.
    - {!Bounds}: hitting-set data for the NP-hard cases. The reply's
      witness is checked to hit every listed cover (an upper bound by
      construction); an optional LP dual vector certifies the lower
      bound by weak duality ([A^T y <= w], [y >= 0] implies every
      hitting set costs at least [sum y]).
    - {!Hardness}: a gadget transcript for classification replies — the
      completed gadget database, its match sets, and the condensed
      odd-path structure whose replay re-establishes the Thm 6.1
      hardness argument.
    - {!Trivial}: degenerate answers (empty language, ε in the language,
      query unsatisfied on the instance) whose validity is a one-line
      value/witness shape check.
    - {!Opaque}: an explicit marker that no independent certificate
      exists for this algorithm (currently only submodular minimization,
      whose optimality argument is oracle-based).

    The checker ({!Checker}) trusts the construction of the certificate's
    instance encoding (network, covers, gadget) but re-verifies every
    optimality argument; see DESIGN.md §13 for the trust boundary. *)

type capacity = Fin of int | Inf

type cut = {
  vertices : int;  (** network vertex count; vertex ids are [0..vertices-1] *)
  source : int;
  sink : int;
  edges : (int * int * capacity) list;  (** edge id = position in this list *)
  flow : int list;  (** per-edge flow, same order as [edges] *)
  cut_edges : int list;  (** edge ids of the claimed minimum cut *)
  fact_edges : (int * int) list;  (** (edge id, fact id): which edges are fact edges *)
  forced : (int * int) list;
      (** (fact id, weight) of facts forced into every witness before the
          network was built (single-letter-word facts in the BCL case) *)
  weights : (int * int) list;
      (** (fact id, weight) for every fact in [fact_edges]; the checker
          requires the fact edge's capacity to equal this weight *)
  inf_path : int list;
      (** edge ids of an all-[Inf] s-t path; non-empty exactly when the
          certified value is infinite *)
}

type bounds = {
  fact_weights : (int * int) list;  (** (fact id, weight) for the instance's facts *)
  covers : int list list option;
      (** fact-id sets, one per query match, that any contingency set must
          hit; [None] when match enumeration was not part of the solve
          (pure branch-and-bound) — then only cost consistency is checked *)
  dual : float list option;
      (** feasible dual vector for the covering LP, one multiplier per
          cover; certifies the lower bound. Requires [covers]. *)
}

type hardness = {
  language : string;  (** the query language the gadget proves hard *)
  words : string list;  (** the finite language's words *)
  facts : (int * int * string * int) list;
      (** (fact id, src, one-char label, dst) of the completed gadget db *)
  f_in : int;  (** fact id of the completion's input endpoint *)
  f_out : int;  (** fact id of the completion's output endpoint *)
  matches : int list list;  (** fact-id support set of every query match *)
  condensed : int list list;
      (** the condensed match hypergraph: 2-element fact-id sets forming
          an odd-length path from [f_in] to [f_out] *)
  path_length : int;
}

type t =
  | Trivial of { why : string }
      (** [why] is one of ["empty-language"], ["epsilon-in-language"],
          ["query-unsatisfied"] *)
  | Cut of cut
  | Bounds of bounds
  | Hardness of hardness
  | Opaque of { algorithm : string }

val kind_name : t -> string
(** The wire [kind] tag: [trivial], [cut], [bounds], [hardness], [opaque]. *)

val add : Buffer.t -> t -> unit
(** Appends the certificate's JSON object. *)

val to_json : t -> string

val read : Json.reader -> (t, string) result
(** Reads the next value as a certificate. A syntax error raises inside
    the reader (see {!Json.read}); a missing or ill-typed field, checked
    in a fixed order per kind, is the [Error]. *)

val of_json : string -> (t, string) result
