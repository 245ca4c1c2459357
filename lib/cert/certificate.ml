type capacity = Fin of int | Inf

type cut = {
  vertices : int;
  source : int;
  sink : int;
  edges : (int * int * capacity) list;
  flow : int list;
  cut_edges : int list;
  fact_edges : (int * int) list;
  forced : (int * int) list;
  weights : (int * int) list;
  inf_path : int list;
}

type bounds = {
  fact_weights : (int * int) list;
  covers : int list list option;
  dual : float list option;
}

type hardness = {
  language : string;
  words : string list;
  facts : (int * int * string * int) list;
  f_in : int;
  f_out : int;
  matches : int list list;
  condensed : int list list;
  path_length : int;
}

type t =
  | Trivial of { why : string }
  | Cut of cut
  | Bounds of bounds
  | Hardness of hardness
  | Opaque of { algorithm : string }

let kind_name = function
  | Trivial _ -> "trivial"
  | Cut _ -> "cut"
  | Bounds _ -> "bounds"
  | Hardness _ -> "hardness"
  | Opaque _ -> "opaque"

(* ---- writing ---- *)

let add_ints = Json.add_list Json.add_int
let add_int_lists = Json.add_list add_ints

let add_pair b (x, y) =
  Buffer.add_char b '[';
  Json.add_int b x;
  Buffer.add_char b ',';
  Json.add_int b y;
  Buffer.add_char b ']'

let add_pairs = Json.add_list add_pair
let add_cap b = function Fin n -> Json.add_int b n | Inf -> Json.add_string b "inf"

let add_edge b (s, d, cap) =
  Buffer.add_char b '[';
  Json.add_int b s;
  Buffer.add_char b ',';
  Json.add_int b d;
  Buffer.add_char b ',';
  add_cap b cap;
  Buffer.add_char b ']'

let add_fact b (id, src, label, dst) =
  Buffer.add_char b '[';
  Json.add_int b id;
  Buffer.add_char b ',';
  Json.add_int b src;
  Buffer.add_char b ',';
  Json.add_string b label;
  Buffer.add_char b ',';
  Json.add_int b dst;
  Buffer.add_char b ']'

let member b name add v =
  Json.add_member b name;
  add b v

let add b c =
  Buffer.add_string b {|{"kind":|};
  Json.add_string b (kind_name c);
  (match c with
  | Trivial { why } -> member b "why" Json.add_string why
  | Cut c ->
      member b "vertices" Json.add_int c.vertices;
      member b "source" Json.add_int c.source;
      member b "sink" Json.add_int c.sink;
      member b "edges" (Json.add_list add_edge) c.edges;
      member b "flow" add_ints c.flow;
      member b "cut_edges" add_ints c.cut_edges;
      member b "fact_edges" add_pairs c.fact_edges;
      member b "forced" add_pairs c.forced;
      member b "weights" add_pairs c.weights;
      member b "inf_path" add_ints c.inf_path
  | Bounds { fact_weights; covers; dual } ->
      member b "weights" add_pairs fact_weights;
      Option.iter (member b "covers" add_int_lists) covers;
      Option.iter (member b "dual" (Json.add_list Json.add_float)) dual
  | Hardness h ->
      member b "language" Json.add_string h.language;
      member b "words" (Json.add_list Json.add_string) h.words;
      member b "facts" (Json.add_list add_fact) h.facts;
      member b "f_in" Json.add_int h.f_in;
      member b "f_out" Json.add_int h.f_out;
      member b "matches" add_int_lists h.matches;
      member b "condensed" add_int_lists h.condensed;
      member b "path_length" Json.add_int h.path_length
  | Opaque { algorithm } -> member b "algorithm" Json.add_string algorithm);
  Buffer.add_char b '}'

let to_json c =
  let b = Buffer.create 1024 in
  add b c;
  Buffer.contents b

(* ---- reading ---- *)

let ( let* ) = Result.bind
let field_err what = Error (Printf.sprintf "certificate: missing or ill-typed field %S" what)
let get what = function Json.Got v -> Ok v | Json.Absent | Json.Ill -> field_err what

(* [covers] and [dual] may be absent; present, even as [null], they must
   be well typed. *)
let get_opt what = function
  | Json.Absent -> Ok None
  | Json.Got v -> Ok (Some v)
  | Json.Ill -> field_err what

let ints r = Json.list Json.int r
let int_lists r = Json.list ints r

let pair_items r =
  let x = Json.int r in
  Json.next r;
  (x, Json.int r)

let pair r = Json.tuple (0, 0) pair_items r
let pairs r = Json.list pair r

let cap r =
  if Json.peek r <> '"' then Fin (Json.int r)
  else if Json.str r = "inf" then Inf
  else begin
    Json.ill r;
    Inf
  end

let edge_items r =
  let s = Json.int r in
  Json.next r;
  let d = Json.int r in
  Json.next r;
  (s, d, cap r)

let edge r = Json.tuple (0, 0, Inf) edge_items r

let fact_items r =
  let id = Json.int r in
  Json.next r;
  let src = Json.int r in
  Json.next r;
  let label = Json.str r in
  Json.next r;
  (id, src, label, Json.int r)

let fact r = Json.tuple (0, 0, "", 0) fact_items r

(* Every member any kind can hold is read into its slot in one pass; the
   kind then decides which slots it checks, in the order listed. *)
let read r =
  let slot () = ref Json.Absent in
  let kind = slot () and why = slot () and algorithm = slot () in
  let vertices = slot () and source = slot () and sink = slot () and edges = slot () in
  let flow = slot () and cut_edges = slot () and fact_edges = slot () and forced = slot () in
  let weights = slot () and inf_path = slot () and covers = slot () and dual = slot () in
  let language = slot () and words = slot () and facts = slot () and f_in = slot () in
  let f_out = slot () and matches = slot () and condensed = slot () and path_length = slot () in
  Json.fields r (function
    | "kind" -> Json.fill r kind Json.str
    | "why" -> Json.fill r why Json.str
    | "algorithm" -> Json.fill r algorithm Json.str
    | "vertices" -> Json.fill r vertices Json.int
    | "source" -> Json.fill r source Json.int
    | "sink" -> Json.fill r sink Json.int
    | "edges" -> Json.fill r edges (Json.list edge)
    | "flow" -> Json.fill r flow ints
    | "cut_edges" -> Json.fill r cut_edges ints
    | "fact_edges" -> Json.fill r fact_edges pairs
    | "forced" -> Json.fill r forced pairs
    | "weights" -> Json.fill r weights pairs
    | "inf_path" -> Json.fill r inf_path ints
    | "covers" -> Json.fill r covers int_lists
    | "dual" -> Json.fill r dual (Json.list Json.float)
    | "language" -> Json.fill r language Json.str
    | "words" -> Json.fill r words (Json.list Json.str)
    | "facts" -> Json.fill r facts (Json.list fact)
    | "f_in" -> Json.fill r f_in Json.int
    | "f_out" -> Json.fill r f_out Json.int
    | "matches" -> Json.fill r matches int_lists
    | "condensed" -> Json.fill r condensed int_lists
    | "path_length" -> Json.fill r path_length Json.int
    | _ -> Json.skip r);
  let* kind = get "kind" !kind in
  match kind with
  | "trivial" ->
      let* why = get "why" !why in
      Ok (Trivial { why })
  | "cut" ->
      let* vertices = get "vertices" !vertices in
      let* source = get "source" !source in
      let* sink = get "sink" !sink in
      let* edges = get "edges" !edges in
      let* flow = get "flow" !flow in
      let* cut_edges = get "cut_edges" !cut_edges in
      let* fact_edges = get "fact_edges" !fact_edges in
      let* forced = get "forced" !forced in
      let* weights = get "weights" !weights in
      let* inf_path = get "inf_path" !inf_path in
      Ok
        (Cut
           { vertices; source; sink; edges; flow; cut_edges; fact_edges; forced; weights; inf_path })
  | "bounds" ->
      let* fact_weights = get "weights" !weights in
      let* covers = get_opt "covers" !covers in
      let* dual = get_opt "dual" !dual in
      Ok (Bounds { fact_weights; covers; dual })
  | "hardness" ->
      let* language = get "language" !language in
      let* words = get "words" !words in
      let* facts = get "facts" !facts in
      let* f_in = get "f_in" !f_in in
      let* f_out = get "f_out" !f_out in
      let* matches = get "matches" !matches in
      let* condensed = get "condensed" !condensed in
      let* path_length = get "path_length" !path_length in
      Ok (Hardness { language; words; facts; f_in; f_out; matches; condensed; path_length })
  | "opaque" ->
      let* algorithm = get "algorithm" !algorithm in
      Ok (Opaque { algorithm })
  | other -> Error (Printf.sprintf "unknown certificate kind %S" other)

let of_json s = Result.join (Json.read s read)
