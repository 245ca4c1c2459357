let default_name i = Printf.sprintf "n%d" i

let to_string ?(names = default_name) d =
  let b = Buffer.create 256 in
  List.iter
    (fun (id, (f : Db.fact)) ->
      if Db.mult d id = 1 then
        Buffer.add_string b
          (Printf.sprintf "%s %c %s\n" (names f.Db.src) f.Db.label (names f.Db.dst))
      else
        Buffer.add_string b
          (Printf.sprintf "%s %c %s %d\n" (names f.Db.src) f.Db.label (names f.Db.dst)
             (Db.mult d id)))
    (Db.facts d);
  Buffer.contents b

type parsed = { db : Db.t; node_name : int -> string; node_id : string -> int option }

(* [String.trim]'s whitespace. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let hash str lo hi =
  let h = ref 0 in
  for i = lo to hi - 1 do
    h := (!h * 31) + Char.code str.[i]
  done;
  !h land max_int

(* [name] spells [str.[lo..hi-1]]. *)
let spells name str lo hi =
  String.length name = hi - lo
  &&
  let k = ref 0 in
  while !k < hi - lo && name.[!k] = str.[lo + !k] do
    incr k
  done;
  !k = hi - lo

(* Linear probing from slot [j] for [str.[lo..hi-1]]. *)
let rec probe slots names str lo hi j =
  if slots.(j) = 0 || spells names.(slots.(j) - 1) str lo hi then j
  else probe slots names str lo hi ((j + 1) land (Array.length slots - 1))

(* The decimal value of the digits [s.[i..hi-1]] after [acc], or -1 at
   a non-digit. *)
let rec decimal s i hi acc =
  if i = hi then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> decimal s (i + 1) hi ((acc * 10) + Char.code c - Char.code '0')
    | _ -> -1

(* The token [s.[lo..hi-1]] as [int_of_string_opt] reads it, 0 for
   [None]. Plain decimal digits, short enough not to overflow, are read
   without allocating: [int_of_string] reads them as decimal too. *)
let multiplicity s lo hi =
  let m = if hi - lo <= 18 then decimal s lo hi 0 else -1 in
  if m >= 0 then m else Option.value ~default:0 (int_of_string_opt (String.sub s lo (hi - lo)))

(* One pass over the text, with the semantics of splitting it on '\n',
   trimming each line and splitting that on ' ' (empty tokens dropped):
   node ids in order of first appearance, a line's source before its
   destination. Node names are looked up straight from the text, so a
   name seen before costs no allocation: open addressing over [slots]
   (node id + 1, or 0 when free), sized for at most two names a line at
   half load. Facts go into columns, one entry a line at most. *)
let parse s =
  let len = String.length s in
  let nlines = ref 1 in
  for i = 0 to len - 1 do
    if s.[i] = '\n' then incr nlines
  done;
  let nlines = !nlines in
  let size = ref 4 in
  while !size < 4 * nlines do
    size := 2 * !size
  done;
  let slots = Array.make !size 0 and names = Array.make (2 * nlines) "" and nnodes = ref 0 in
  (* The slot of [str.[lo..hi-1]]: its node's, or the free one it would take. *)
  let slot str lo hi = probe slots names str lo hi (hash str lo hi land (Array.length slots - 1)) in
  let node lo hi =
    let j = slot s lo hi in
    if slots.(j) = 0 then begin
      names.(!nnodes) <- String.sub s lo (hi - lo);
      incr nnodes;
      slots.(j) <- !nnodes
    end;
    slots.(j) - 1
  in
  let src = Array.make nlines 0 and label = Bytes.make nlines 'a' in
  let dst = Array.make nlines 0 and mult = Array.make nlines 0 in
  let nfacts = ref 0 in
  (* Start and stop of the first four tokens of the current line. *)
  let tok_lo = Array.make 4 0 and tok_hi = Array.make 4 0 in
  let tok i = String.sub s tok_lo.(i) (tok_hi.(i) - tok_lo.(i)) in
  (* Error messages start with "<line>:" so a caller can prefix the file
     name and get a standard file:line diagnostic. *)
  let rec lines lineno pos =
    let stop = ref pos in
    while !stop < len && s.[!stop] <> '\n' do
      incr stop
    done;
    let stop = !stop and lo = ref pos and hi = ref !stop in
    while !lo < !hi && is_space s.[!lo] do
      incr lo
    done;
    while !hi > !lo && is_space s.[!hi - 1] do
      decr hi
    done;
    let result =
      if !lo = !hi || s.[!lo] = '#' then Ok ()
      else begin
        let ntok = ref 0 and i = ref !lo in
        while !i < !hi && !ntok <= 4 do
          if s.[!i] = ' ' then incr i
          else begin
            let j = ref !i in
            while !j < !hi && s.[!j] <> ' ' do
              incr j
            done;
            if !ntok < 4 then begin
              tok_lo.(!ntok) <- !i;
              tok_hi.(!ntok) <- !j
            end;
            incr ntok;
            i := !j
          end
        done;
        if (!ntok = 3 || !ntok = 4) && tok_hi.(1) - tok_lo.(1) = 1 then
          let m = if !ntok = 3 then 1 else multiplicity s tok_lo.(3) tok_hi.(3) in
          if m >= 1 then begin
            let u = node tok_lo.(0) tok_hi.(0) in
            let v = node tok_lo.(2) tok_hi.(2) in
            src.(!nfacts) <- u;
            Bytes.set label !nfacts s.[tok_lo.(1)];
            dst.(!nfacts) <- v;
            mult.(!nfacts) <- m;
            incr nfacts;
            Ok ()
          end
          else
            Error
              (Printf.sprintf "%d: bad multiplicity %S (expected an integer >= 1)" lineno (tok 3))
        else
          Error
            (Printf.sprintf "%d: expected `src label dst [mult]` with a single-character label"
               lineno)
      end
    in
    match result with
    | Ok () when stop < len -> lines (lineno + 1) (stop + 1)
    | r -> r
  in
  match lines 1 0 with
  | Error e -> Error e
  | Ok () ->
      let nnodes = !nnodes in
      Ok
        {
          db = Db.of_columns ~nnodes ~src ~label ~dst ~mult !nfacts;
          node_name =
            (fun id -> if id >= 0 && id < nnodes then names.(id) else Printf.sprintf "#%d" id);
          node_id =
            (fun name ->
              let j = slot name 0 (String.length name) in
              if slots.(j) = 0 then None else Some (slots.(j) - 1));
        }

let of_string s =
  Result.map (fun p -> (p.db, p.node_name)) (parse s)

let to_dot ?(names = default_name) d =
  let b = Buffer.create 256 in
  Buffer.add_string b "digraph db {\n  rankdir=LR;\n";
  for v = 0 to Db.nnodes d - 1 do
    Buffer.add_string b (Printf.sprintf "  v%d [label=\"%s\"];\n" v (names v))
  done;
  List.iter
    (fun (id, (f : Db.fact)) ->
      let label =
        if Db.mult d id = 1 then String.make 1 f.Db.label
        else Printf.sprintf "%c(x%d)" f.Db.label (Db.mult d id)
      in
      Buffer.add_string b (Printf.sprintf "  v%d -> v%d [label=\"%s\"];\n" f.Db.src f.Db.dst label))
    (Db.facts d);
  Buffer.add_string b "}\n";
  Buffer.contents b
