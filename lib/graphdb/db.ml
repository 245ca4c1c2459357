type fact = { src : int; label : char; dst : int }

type t = {
  nnodes : int;
  all_facts : fact array;
  mults : int array;
  alive : bool array;
  out : (int * fact) list array;  (* outgoing live facts per node, kept in sync *)
}

let compute_out nnodes all_facts alive =
  let out = Array.make (max nnodes 1) [] in
  for id = Array.length all_facts - 1 downto 0 do
    let f = all_facts.(id) in
    if alive.(id) then out.(f.src) <- (id, f) :: out.(f.src)
  done;
  out

(* Facts are kept in (src, label, dst) order. One integer key per fact,
   ((src * 256 + code label) * nnodes + dst), sorts in exactly that
   order: dst < nnodes and a label code < 256 are the key's lower digits. *)
let of_columns ~nnodes ~src ~label ~dst ~mult n =
  let keys = Array.make n 0 in
  for i = 0 to n - 1 do
    if src.(i) < 0 || src.(i) >= nnodes || dst.(i) < 0 || dst.(i) >= nnodes then
      invalid_arg "Db.make: node out of range";
    if mult.(i) < 1 then invalid_arg "Db.make: multiplicity must be >= 1";
    keys.(i) <- (((src.(i) * 256) + Char.code (Bytes.get label i)) * nnodes) + dst.(i)
  done;
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Int.compare keys.(i) keys.(j)) order;
  (* Merge each run of equal keys into one fact, adding multiplicities. *)
  let merged = Array.make n 0 and mults = Array.make n 0 in
  let nf = ref 0 in
  Array.iter
    (fun i ->
      if !nf > 0 && keys.(i) = merged.(!nf - 1) then mults.(!nf - 1) <- mults.(!nf - 1) + mult.(i)
      else begin
        merged.(!nf) <- keys.(i);
        mults.(!nf) <- mult.(i);
        incr nf
      end)
    order;
  let all_facts =
    Array.init !nf (fun i ->
        let k = merged.(i) in
        let hi = k / nnodes in
        { src = hi / 256; label = Char.chr (hi mod 256); dst = k mod nnodes })
  in
  let mults = Array.sub mults 0 !nf in
  let alive = Array.make !nf true in
  { nnodes; all_facts; mults; alive; out = compute_out nnodes all_facts alive }

let of_mult_list nnodes fact_mults =
  let n = List.length fact_mults in
  let src = Array.make n 0 and label = Bytes.make n 'a' in
  let dst = Array.make n 0 and mult = Array.make n 0 in
  List.iteri
    (fun i (s, l, d, m) ->
      src.(i) <- s;
      Bytes.set label i l;
      dst.(i) <- d;
      mult.(i) <- m)
    fact_mults;
  of_columns ~nnodes ~src ~label ~dst ~mult n

let make ~nnodes ~facts = of_mult_list nnodes (List.map (fun (s, l, d) -> (s, l, d, 1)) facts)
let make_bag ~nnodes ~facts = of_mult_list nnodes facts

(* The order of polymorphic [compare] on the tuples, component by
   component. *)
let compare_entry (s, l, d, m) (s', l', d', m') =
  let c = Int.compare s s' in
  if c <> 0 then c
  else
    let c = Char.compare l l' in
    if c <> 0 then c
    else
      let c = Int.compare d d' in
      if c <> 0 then c else Int.compare m m'

let unsafe_make_bag ~nnodes ~facts =
  let entries = List.sort compare_entry facts in
  let all_facts =
    Array.of_list (List.map (fun (s, l, d, _) -> { src = s; label = l; dst = d }) entries)
  in
  let mults = Array.of_list (List.map (fun (_, _, _, m) -> m) entries) in
  let alive = Array.make (Array.length all_facts) true in
  let out = Array.make (max nnodes 1) [] in
  Array.iteri
    (fun id f -> if f.src >= 0 && f.src < Array.length out then out.(f.src) <- (id, f) :: out.(f.src))
    all_facts;
  { nnodes; all_facts; mults; alive; out = Array.map List.rev out }
let nnodes t = t.nnodes
let fact_count t = Array.length t.all_facts
let live_count t = Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 t.alive
let is_live t id = t.alive.(id)
let fact t id = t.all_facts.(id)
let mult t id = t.mults.(id)

let total_mult t =
  let acc = ref 0 in
  Array.iteri (fun id a -> if a then acc := !acc + t.mults.(id)) t.alive;
  !acc

let facts t =
  let acc = ref [] in
  for id = Array.length t.all_facts - 1 downto 0 do
    if t.alive.(id) then acc := (id, t.all_facts.(id)) :: !acc
  done;
  !acc

let alphabet t =
  List.fold_left (fun acc (_, f) -> Automata.Cset.add f.label acc) Automata.Cset.empty (facts t)

let out_edges t v = t.out.(v)

let is_acyclic t =
  let color = Array.make (max t.nnodes 1) 0 in
  let cyclic = ref false in
  let rec dfs v =
    if color.(v) = 1 then cyclic := true
    else if color.(v) = 0 then begin
      color.(v) <- 1;
      List.iter (fun (_, f) -> dfs f.dst) t.out.(v);
      color.(v) <- 2
    end
  in
  for v = 0 to t.nnodes - 1 do
    dfs v
  done;
  not !cyclic

let restrict t ~removed =
  let alive = Array.mapi (fun id a -> a && not (removed id)) t.alive in
  { t with alive; out = compute_out t.nnodes t.all_facts alive }

let remove t ids = restrict t ~removed:(fun id -> List.mem id ids)
let with_unit_mults t = { t with mults = Array.map (fun _ -> 1) t.mults }

let reverse t =
  let all_facts = Array.map (fun f -> { src = f.dst; label = f.label; dst = f.src }) t.all_facts in
  { t with all_facts; out = compute_out t.nnodes all_facts t.alive }

let validate t =
  let module C = Invariant.Collector in
  let c = C.create "Graphdb.Db" in
  let nfacts = Array.length t.all_facts in
  C.check c (t.nnodes >= 0) ~invariant:"node-count" "nnodes = %d is negative" t.nnodes;
  C.check c
    (Array.length t.mults = nfacts)
    ~invariant:"array-lengths" "mults has length %d, expected %d" (Array.length t.mults) nfacts;
  C.check c
    (Array.length t.alive = nfacts)
    ~invariant:"array-lengths" "alive has length %d, expected %d" (Array.length t.alive) nfacts;
  Array.iteri
    (fun id f ->
      C.check c
        (f.src >= 0 && f.src < t.nnodes && f.dst >= 0 && f.dst < t.nnodes)
        ~invariant:"node-range" "fact %d: %d --%C--> %d outside [0,%d)" id f.src f.label f.dst
        t.nnodes)
    t.all_facts;
  Array.iteri
    (fun id m ->
      if id < nfacts then
        C.check c (m >= 1) ~invariant:"multiplicity" "fact %d has multiplicity %d < 1" id m)
    t.mults;
  (* Strictly increasing: [make_bag] sorts and merges duplicates, so equal
     adjacent facts mean the merge step was bypassed. *)
  for id = 0 to nfacts - 2 do
    C.check c
      (compare t.all_facts.(id) t.all_facts.(id + 1) < 0)
      ~invariant:"fact-order" "facts %d and %d out of canonical order (or unmerged duplicates)"
      id (id + 1)
  done;
  (* The out index must stay in sync with the alive mask. *)
  if C.violations c = [] then begin
    let expected = compute_out t.nnodes t.all_facts t.alive in
    C.check c
      (Array.length t.out = Array.length expected)
      ~invariant:"out-index" "out index has %d rows, expected %d" (Array.length t.out)
      (Array.length expected);
    if Array.length t.out = Array.length expected then
      Array.iteri
        (fun v row ->
          C.check c
            (row = expected.(v))
            ~invariant:"out-index" "out index of node %d disagrees with the live facts" v)
        t.out
  end;
  C.result c

let pp ppf t =
  Format.fprintf ppf "@[<v>db: %d nodes, %d facts@," t.nnodes (live_count t);
  List.iter
    (fun (id, f) ->
      Format.fprintf ppf "  f%d: %d --%c--> %d (x%d)@," id f.src f.label f.dst t.mults.(id))
    (facts t);
  Format.fprintf ppf "@]"

module Builder = struct
  type db = t

  type t = {
    names : (string, int) Hashtbl.t;
    mutable next_node : int;
    mutable fact_list : (int * char * int * int) list;
    mutable fresh : int;
  }

  let create () =
    { names = Hashtbl.create 16; next_node = 0; fact_list = []; fresh = 0 }

  let node b name =
    match Hashtbl.find_opt b.names name with
    | Some id -> id
    | None ->
        let id = b.next_node in
        b.next_node <- id + 1;
        Hashtbl.add b.names name id;
        id

  let add b ?(mult = 1) u label v =
    let us = node b u and vs = node b v in
    b.fact_list <- (us, label, vs, mult) :: b.fact_list

  let add_word_path b u w v =
    if w = "" then begin
      if u <> v then invalid_arg "Builder.add_word_path: empty word needs equal endpoints"
    end
    else begin
      let n = String.length w in
      let mid i =
        b.fresh <- b.fresh + 1;
        Printf.sprintf "__%s_%s_%d_%d" u v b.fresh i
      in
      let nodes = Array.of_list ((u :: List.init (n - 1) mid) @ [ v ]) in
      String.iteri (fun i c -> add b nodes.(i) c nodes.(i + 1)) w
    end

  let build b = of_mult_list b.next_node (List.rev b.fact_list)
end
