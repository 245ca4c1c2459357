(* The benchmark's inputs. Every job is a pure function of the workload
   name and the seed, so the same seed gives byte-identical job lists
   (their digest is printed on every run). The seed picks instance
   contents and order; the mix of instance shapes and sizes is fixed per
   workload, so runs with different seeds measure the same amount of
   work. *)

module Proto = Runner.Proto
module G = Graphdb.Generate

(* Node names carry a per-job tag: no two jobs share a canonical digest
   (and so a cache entry) by accident, while the parsed instance, and
   with it the work, is exactly what the generator made. *)
let job ~tag ?steps query db =
  {
    Proto.id = tag;
    db = Graphdb.Serialize.to_string ~names:(fun i -> Printf.sprintf "%s.%d" tag i) db;
    query;
    budget = { Proto.no_budget with Proto.steps };
    faults = None;
    deadline_ms = None;
    priority = Proto.default_priority;
    trace = None;
  }

type shape =
  | Grid of int  (** [ax*b] on a [w × w] flow grid: local, Thm 3.3 *)
  | Layered of int  (** [ab|bc] on a 4-layer database of width [w]: BCL, Prop 7.5 *)
  | Aa of Graphs.Ugraph.t  (** [aa] on the vertex-cover encoding of a graph *)
  | Random of string * char list * int * int  (** query, alphabet, nodes, facts *)

(* A fixed step budget makes the anytime chain (B&B, then ILP, then LP
   bounds) stop at the same point on every run. *)
let hard_steps = 2000

let make_job ~tag ~seed = function
  | Grid w -> job ~tag "ax*b" (G.flow_grid ~width:w ~depth:w ~max_mult:3 ~seed ())
  | Layered w ->
      job ~tag "ab|bc" (G.layered ~layers:[ 'a'; 'b'; 'c' ] ~width:w ~max_mult:3 ~seed ())
  | Aa g ->
      let gadget, _ = Resilience.Gadgets.gadget_aa () in
      job ~tag ~steps:hard_steps "aa" (Resilience.Gadgets.encode gadget g)
  | Random (query, alphabet, nnodes, nfacts) ->
      job ~tag ~steps:hard_steps query (G.random ~nnodes ~nfacts ~alphabet ~seed ())

let ptime_shapes =
  List.concat_map (fun w -> [ Grid w; Layered w ]) [ 8; 9; 10; 11; 12; 13; 14; 15; 16 ]

let hard_shapes =
  let k = Graphs.Ugraph.complete in
  [
    Aa (k 4);
    Aa (k 5);
    Aa (k 6);
    Aa (Graphs.Ugraph.path 12);
    Random ("axb|cxd", [ 'a'; 'b'; 'c'; 'd'; 'x' ], 24, 160);
    Random ("ab|bc|ca", [ 'a'; 'b'; 'c' ], 20, 120);
    Random ("abcd|be", [ 'a'; 'b'; 'c'; 'd'; 'e' ], 24, 160);
  ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [n] distinct jobs cycling through [shapes] in blocks, each block in a
   seeded order: any prefix of whole blocks has the same shape mix. *)
let stratified ~prefix ~seed ~n shapes =
  let shapes = Array.of_list shapes in
  let rng = Random.State.make [| seed; Hashtbl.hash prefix |] in
  let order = Array.init (Array.length shapes) Fun.id in
  Array.init n (fun i ->
      let pos = i mod Array.length shapes in
      if pos = 0 then shuffle rng order;
      make_job
        ~tag:(Printf.sprintf "%s%d" prefix i)
        ~seed:((seed * 1_000_003) + i)
        shapes.(order.(pos)))

(* What a workload sends. [distinct] holds every different job; the
   warm-up and the timed window refer to it by index. A request's wire id
   is its position in the stream, so answers to repeated jobs are still
   told apart. *)
type t = {
  distinct : Proto.job array;
  warm : int array;  (** sent (and answered) before the timed window *)
  requests : int array;  (** the timed stream, consumed in order *)
}

let request_id k = Printf.sprintf "r%d" k

(* 150 distinct jobs per second of window, about five times the
   throughput of the reference host; a program fast enough to drain the
   stream ends the window early. *)
let distinct_stream ~prefix ~seed ~seconds shapes =
  let n = 150 * seconds in
  { distinct = stratified ~prefix ~seed ~n shapes; warm = [||]; requests = Array.init n Fun.id }

let ptime_certified ~seed ~seconds = distinct_stream ~prefix:"p" ~seed ~seconds ptime_shapes
let hard_budgeted ~seed ~seconds = distinct_stream ~prefix:"h" ~seed ~seconds hard_shapes

(* 36 jobs, under the server's 64-entry cache, drawn with Zipf
   weights 1/rank. Ranks walk a fixed width cycle, so the hottest entries
   have the same sizes under every seed. *)
let cache_hot ~seed ~seconds =
  let cycle = [| 12; 9; 15; 11; 14; 8; 16; 10; 13 |] in
  let size = 36 in
  let distinct =
    Array.init size (fun r ->
        let w = cycle.(r / 2 mod Array.length cycle) in
        make_job
          ~tag:(Printf.sprintf "c%d" r)
          ~seed:((seed * 1_000_003) + r)
          (if r mod 2 = 0 then Grid w else Layered w))
  in
  let cum = Array.make size 0.0 in
  Array.iteri
    (fun r _ -> cum.(r) <- (if r = 0 then 0.0 else cum.(r - 1)) +. (1.0 /. float_of_int (r + 1)))
    cum;
  let total = cum.(size - 1) in
  let rng = Random.State.make [| seed; 7 |] in
  let draw () =
    let u = Random.State.float rng total in
    let rec find lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if cum.(mid) > u then find lo mid else find (mid + 1) hi
    in
    find 0 (size - 1)
  in
  {
    distinct;
    warm = Array.init size Fun.id;
    requests = Array.init (1000 * seconds) (fun _ -> draw ());
  }

(* The batch list: both PTIME generators at four sizes plus one job per
   hard language. Its instances are fixed, so every seed runs the same
   twelve jobs (a p50 over twelve job sizes would otherwise move with the
   seed); the seed sets their order. [rpq batch] names jobs j1, j2, ... by
   jobfile line, so [distinct.(i)] carries the id of line i + 1. *)
let batch_journal ~seed =
  let shapes =
    Array.of_list
      (List.concat_map (fun w -> [ Grid w; Layered w ]) [ 8; 10; 12; 14 ]
      @ Aa (Graphs.Ugraph.complete 5)
        :: List.filter (function Random _ -> true | _ -> false) hard_shapes)
  in
  let n = Array.length shapes in
  let order = Array.init n Fun.id in
  shuffle (Random.State.make [| seed; Hashtbl.hash "b" |]) order;
  {
    distinct =
      Array.mapi
        (fun line k ->
          let j = make_job ~tag:(Printf.sprintf "b%d" k) ~seed:k shapes.(k) in
          { j with Proto.id = Printf.sprintf "j%d" (line + 1) })
        order;
    warm = [||];
    requests = Array.init n Fun.id;
  }

let digest t =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (Array.to_list (Array.map Proto.job_to_json t.distinct)
          @ [ ints t.warm; ints t.requests ])))
