(* The certificate conformance corpus and checker-hardening suite.

   Three layers of assurance that the independent checker is neither
   credulous nor paranoid:

   - the committed corpus under certs/: every accept_*.jsonl line (real
     CLI output across all solver paths) must check, every
     reject_*.jsonl line (a hand-tampered certificate per failure mode
     named in the issue) must be refused;
   - programmatic tampers: solver-produced replies with their
     certificates stripped, swapped, or value-shifted must be refused;
   - a seeded byte-flip fuzzer: >= 200 single-byte mutations inside the
     cert block of corpus lines, every one refused — a mutated
     certificate that still checks would be a soundness hole. *)

open Resilience
module Ser = Graphdb.Serialize
module Proto = Cert.Proto
module Certificate = Cert.Certificate
module Checker = Cert.Checker

let check = Alcotest.(check bool)

(* ---- fixtures: replies produced by the real solver stack ---- *)

let easy_db = "s a m\nm a t\n"
let mix_db = "s a m\nm b t\ns b u\nu a t\n"
let submod_db = "s a m\nm b n\nn c t\ns b u\nu e t\n"

(* The aa gadget on K6 (the vertex-cover reduction of Definition 4.5):
   large enough that a 500-step budget settles it as bounded. *)
let hard_db =
  let g = Graphs.Ugraph.complete 6 in
  let pre, _ = Gadgets.gadget_aa () in
  Ser.to_string (Gadgets.encode pre g)

let job ?(id = "j") ?(db = easy_db) ?(query = "aa") ?steps () =
  {
    Proto.id;
    db;
    query;
    budget = { Proto.deadline = None; steps; memo_cap = None };
    faults = Some "off";
    deadline_ms = None;
    priority = Proto.default_priority;
    trace = None;
  }

let solve ?id ?db ?steps query = Runner.run_job_locally (job ?id ?db ?steps ~query ())

let ok_or_msg = function Ok _ -> "ok" | Error e -> e

(* Every solver path's reply — local cut, BCL cut, hitting-set bounds,
   submodular opaque, trivial — carries a certificate that re-checks,
   and the error reply (no certificate) checks too. *)
let test_generated_replies_check () =
  List.iter
    (fun (label, r) ->
      Alcotest.(check string)
        (label ^ " checks") "ok"
        (ok_or_msg (Checker.check_reply r)))
    [
      ("local mincut", solve ~db:mix_db "ab");
      ("bcl mincut", solve ~db:mix_db "ab|ba");
      ("hitting set", solve "aa");
      ("submodular", solve ~db:submod_db "abc|be");
      ("trivial epsilon", solve "a*");
      ("error reply", solve "((");
    ]

let test_bounded_reply_checks () =
  let r = solve ~id:"b" ~db:hard_db ~steps:500 "aa" in
  (match r.Proto.verdict with
  | Proto.V_bounded _ -> ()
  | v -> Alcotest.failf "expected a bounded verdict, got %s" (Proto.verdict_name v));
  Alcotest.(check string) "bounded reply checks" "ok" (ok_or_msg (Checker.check_reply r))

(* ---- the committed corpus ---- *)

(* Under `dune runtest` the cwd is the test directory itself; under
   `dune exec` it is the project root. *)
let corpus_dir =
  if Sys.file_exists "certs" then "certs" else Filename.concat "test" "certs"

let corpus_files prefix =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > String.length prefix
         && String.sub f 0 (String.length prefix) = prefix
         && Filename.check_suffix f ".jsonl")
  |> List.sort compare
  |> List.map (Filename.concat corpus_dir)

let lines_of file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")

let test_corpus_accepts () =
  let files = corpus_files "accept_" in
  check "accept corpus present" true (List.length files >= 4);
  List.iter
    (fun file ->
      List.iteri
        (fun i line ->
          match Checker.check_line line with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s:%d rejected: %s" file (i + 1) e)
        (lines_of file))
    files

let test_corpus_rejects () =
  let files = corpus_files "reject_" in
  check "reject corpus present" true (List.length files >= 6);
  List.iter
    (fun file ->
      List.iteri
        (fun i line ->
          match Checker.check_line line with
          | Error _ -> ()
          | Ok what ->
              Alcotest.failf "%s:%d accepted a tampered %s line" file (i + 1) what)
        (lines_of file))
    files

(* ---- programmatic tampers ---- *)

let shift_value = function
  | Cert.Value.Finite n -> Cert.Value.Finite (n + 1)
  | Cert.Value.Infinite -> Cert.Value.Finite 0

let test_programmatic_tampers () =
  let cut_reply = solve ~db:mix_db "ab" in
  let bounds_reply = solve "aa" in
  let refuse label r =
    match Checker.check_reply r with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "checker accepted %s" label
  in
  refuse "a stripped certificate" { cut_reply with Proto.cert = None };
  refuse "a cut certificate on a hitting-set reply"
    { bounds_reply with Proto.cert = cut_reply.Proto.cert };
  refuse "a bounds certificate on a mincut reply"
    { cut_reply with Proto.cert = bounds_reply.Proto.cert };
  (match cut_reply.Proto.verdict with
  | Proto.V_exact { value; algorithm; witness } ->
      refuse "a shifted exact value"
        {
          cut_reply with
          Proto.verdict = Proto.V_exact { value = shift_value value; algorithm; witness };
        }
  | _ -> Alcotest.fail "local solve did not settle exactly");
  match bounds_reply.Proto.verdict with
  | Proto.V_exact { value; algorithm; witness = Some (_ :: _ as w) } ->
      refuse "a padded witness"
        {
          bounds_reply with
          Proto.verdict =
            Proto.V_exact { value; algorithm; witness = Some (w @ [ 997 ]) };
        }
  | _ -> Alcotest.fail "hitting-set solve did not settle with a witness"

(* The checker's indexed lookups keep the list semantics they replaced:
   a fact listed twice in one cover loads that cover's multiplier once
   (one fact of weight 1, cover [1; 1], dual 1.0 is feasible). *)
let test_cover_duplicates_count_once () =
  let reply cover =
    {
      (Proto.failed ~id:"d" ~kind:"x" "unused") with
      Proto.verdict =
        Proto.V_exact { value = Cert.Value.Finite 1; algorithm = "hitting-set ILP"; witness = Some [ 1 ] };
      cert =
        Some
          (Certificate.Bounds
             { fact_weights = [ (1, 1) ]; covers = Some [ cover ]; dual = Some [ 1.0 ] });
    }
  in
  Alcotest.(check string) "duplicate in a cover counts once" "ok"
    (ok_or_msg (Checker.check_reply (reply [ 1; 1 ])));
  check "an overloaded fact is still refused" true
    (Result.is_error
       (Checker.check_reply
          {
            (reply [ 1 ]) with
            Proto.cert =
              Some
                (Certificate.Bounds
                   { fact_weights = [ (1, 1) ]; covers = Some [ [ 1 ]; [ 1 ] ]; dual = Some [ 1.0; 1.0 ] });
          }))

(* Unknown schema versions must be refused outright, not half-parsed. *)
let test_unknown_version_rejected () =
  let r = solve ~db:mix_db "ab" in
  let json = Proto.reply_to_json r in
  check "current version accepts" true (Result.is_ok (Checker.check_line json));
  let prefix = "{\"v\":1," in
  let pl = String.length prefix in
  check "the v field leads the reply" true
    (String.length json > pl && String.sub json 0 pl = prefix);
  let bumped = "{\"v\":9," ^ String.sub json pl (String.length json - pl) in
  check "unknown version rejects" true (Result.is_error (Checker.check_line bumped))

(* ---- certificate JSON roundtrip ---- *)

let test_cert_roundtrip () =
  List.iter
    (fun (label, r) ->
      match r.Proto.cert with
      | None -> Alcotest.failf "%s reply carries no certificate" label
      | Some c -> (
          match Certificate.of_json (Certificate.to_json c) with
          | Error e -> Alcotest.failf "%s cert does not roundtrip: %s" label e
          | Ok c' ->
              Alcotest.(check string)
                (label ^ " roundtrips through JSON")
                (Certificate.to_json c) (Certificate.to_json c')))
    [
      ("cut", solve ~db:mix_db "ab");
      ("bounds", solve "aa");
      ("opaque", solve ~db:submod_db "abc|be");
      ("trivial", solve "a*");
    ]

(* ---- seeded byte-flip fuzzer ---- *)

(* The span of the cert object in a compact JSON line: from the opening
   brace after "cert": to its matched closing brace. The scan respects
   string literals and backslash escapes. *)
let cert_span line =
  let marker = "\"cert\":{" in
  let ml = String.length marker in
  let n = String.length line in
  let rec find i =
    if i + ml > n then None
    else if String.sub line i ml = marker then Some (i + ml - 1)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let rec close i depth in_str =
        if i >= n then None
        else
          match line.[i] with
          | '\\' when in_str -> close (i + 2) depth in_str
          | '"' -> close (i + 1) depth (not in_str)
          | '{' when not in_str -> close (i + 1) (depth + 1) in_str
          | '}' when not in_str ->
              if depth = 1 then Some (start, i) else close (i + 1) (depth - 1) in_str
          | _ -> close (i + 1) depth in_str
      in
      close start 0 false

let flip_one prng line (lo, hi) =
  let pos = lo + Invariant.Prng.int prng (hi - lo + 1) in
  let old = line.[pos] in
  let rec fresh () =
    (* printable ASCII keeps the mutation inside the JSON token
       alphabet, where a silent accept would be most plausible *)
    let c = Char.chr (32 + Invariant.Prng.int prng 95) in
    if c = old then fresh () else c
  in
  let b = Bytes.of_string line in
  Bytes.set b pos (fresh ());
  Bytes.to_string b

let test_byte_flip_fuzzer () =
  let lines =
    List.concat_map lines_of (corpus_files "accept_")
    |> List.filter (fun l -> cert_span l <> None)
  in
  check "corpus has certified lines" true (List.length lines >= 6);
  let per_line = 1 + (200 / List.length lines) in
  let mutations = ref 0 in
  List.iteri
    (fun li line ->
      let span =
        match cert_span line with Some s -> s | None -> Alcotest.fail "span vanished"
      in
      for s = 0 to per_line - 1 do
        let prng = Invariant.Prng.make ((li * 1000) + s) in
        let mutant = flip_one prng line span in
        incr mutations;
        match Checker.check_line mutant with
        | Error _ -> ()
        | Ok what ->
            Alcotest.failf
              "seed %d/%d: a byte-flipped %s certificate was accepted: %s" li s what
              mutant
      done)
    lines;
  check "at least 200 mutations exercised" true (!mutations >= 200)

(* ---- JSON codec differential ---- *)

(* The codec as it was before its emitter and parser took direct paths
   (ints as digits, escape-free runs as substrings, escape-free strings as
   one [String.sub], plain ints accumulated in place), copied verbatim as
   the oracle: every tree must emit the same bytes, and every input must
   parse to the same value or fail with the same message. Its accessors
   ([member], [to_int_opt], ...) are unused here. *)
module Oracle = struct
  [@@@warning "-32"]

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let buf_add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.9g" f)
      else Buffer.add_string b "null"
  | Str s -> buf_add_escaped b s
  | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          emit b v)
        vs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          buf_add_escaped b k;
          Buffer.add_char b ':';
          emit b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  emit b v;
  Buffer.contents b

exception Bad of string

(* Minimal recursive-descent parser, sufficient for re-reading what
   [to_string] emits (journal lines, job/reply frames). Input bytes above
   0x7f pass through untouched; [\uXXXX] escapes decode to a single byte
   when < 0x100 and to '?' otherwise. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r')
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit in \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; incr pos
               | '\\' -> Buffer.add_char b '\\'; incr pos
               | '/' -> Buffer.add_char b '/'; incr pos
               | 'n' -> Buffer.add_char b '\n'; incr pos
               | 'r' -> Buffer.add_char b '\r'; incr pos
               | 't' -> Buffer.add_char b '\t'; incr pos
               | 'b' -> Buffer.add_char b '\b'; incr pos
               | 'f' -> Buffer.add_char b '\012'; incr pos
               | 'u' ->
                   if !pos + 4 >= n then fail "truncated \\u escape";
                   let v =
                     (hex s.[!pos + 1] lsl 12)
                     lor (hex s.[!pos + 2] lsl 8)
                     lor (hex s.[!pos + 3] lsl 4)
                     lor hex s.[!pos + 4]
                   in
                   Buffer.add_char b (if v < 0x100 then Char.chr v else '?');
                   pos := !pos + 5
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            loop ()
        | c -> Buffer.add_char b c; incr pos; loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> begin
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" tok)
      end
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
      else Ok v
  | exception Bad msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | Str _ | List _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_str_opt = function Str s -> Some s | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
end

let rec to_oracle : Cert.Json.t -> Oracle.t = function
  | Cert.Json.Null -> Oracle.Null
  | Cert.Json.Bool b -> Oracle.Bool b
  | Cert.Json.Int i -> Oracle.Int i
  | Cert.Json.Float f -> Oracle.Float f
  | Cert.Json.Str s -> Oracle.Str s
  | Cert.Json.List vs -> Oracle.List (List.map to_oracle vs)
  | Cert.Json.Obj fs -> Oracle.Obj (List.map (fun (k, v) -> (k, to_oracle v)) fs)

(* Floats compare by bit pattern, so a nan or a -0.0 must match exactly. *)
let rec same_value (a : Cert.Json.t) (b : Oracle.t) =
  match (a, b) with
  | Cert.Json.Null, Oracle.Null -> true
  | Cert.Json.Bool x, Oracle.Bool y -> x = y
  | Cert.Json.Int x, Oracle.Int y -> x = y
  | Cert.Json.Float x, Oracle.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Cert.Json.Str x, Oracle.Str y -> String.equal x y
  | Cert.Json.List xs, Oracle.List ys ->
      List.length xs = List.length ys && List.for_all2 same_value xs ys
  | Cert.Json.Obj xs, Oracle.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (k', y) -> String.equal k k' && same_value x y) xs ys
  | _ -> false

let same_parse s =
  match (Cert.Json.parse s, Oracle.parse s) with
  | Ok a, Ok b -> same_value a b
  | Error e, Error e' -> String.equal e e'
  | _ -> false

let gen_json =
  let open QCheck.Gen in
  let ints =
    oneof
      [
        oneofl [ 0; 1; -1; 9; 10; -10; 99; 100; min_int; max_int; min_int + 1; max_int - 1 ];
        small_signed_int;
        int;
      ]
  in
  let floats =
    oneof [ oneofl [ nan; infinity; neg_infinity; -0.0; 0.0; 0.1; -1.5; 1e300; 5e-324 ]; float ]
  in
  (* [char] draws all 256 byte values: escapes, controls and bytes above 0x7f. *)
  let bytes = string_size ~gen:char (int_bound 12) in
  let leaf =
    frequency
      [
        (1, return Cert.Json.Null);
        (1, map (fun b -> Cert.Json.Bool b) bool);
        (3, map (fun i -> Cert.Json.Int i) ints);
        (2, map (fun f -> Cert.Json.Float f) floats);
        (3, map (fun s -> Cert.Json.Str s) bytes);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun vs -> Cert.Json.List vs) (list_size (int_bound 4) (self (n / 3))));
               ( 1,
                 map
                   (fun fs -> Cert.Json.Obj fs)
                   (list_size (int_bound 4) (pair bytes (self (n / 3)))) );
             ])

let arb_json = QCheck.make ~print:Cert.Json.to_string gen_json

let prop_emit_matches_oracle =
  QCheck.Test.make ~name:"to_string emits the oracle's bytes" ~count:2000 arb_json (fun v ->
      String.equal (Cert.Json.to_string v) (Oracle.to_string (to_oracle v)))

let prop_parse_bytes_matches_oracle =
  (* Half raw bytes, half the JSON token alphabet, where the parser's
     error paths (numbers, escapes, literals, nesting) actually run. *)
  let alphabet = List.of_seq (String.to_seq "{}[]\",:0123456789-+.eE \\/ntrufalsbu\n") in
  let gen =
    QCheck.Gen.(
      string_size ~gen:(frequency [ (1, char); (3, oneofl alphabet) ]) (int_bound 24))
  in
  QCheck.Test.make ~name:"parse agrees with the oracle on random bytes" ~count:3000
    (QCheck.make ~print:String.escaped gen)
    same_parse

let prop_parse_edits_match_oracle =
  (* One-byte edits of emitted JSON: replace, delete, insert, truncate. *)
  let gen =
    QCheck.Gen.(
      let* v = gen_json in
      let s = Cert.Json.to_string v in
      let* i = int_bound (String.length s) in
      let* c = char in
      let+ kind = int_bound 3 in
      let n = String.length s in
      let j = min i (n - 1) in
      match kind with
      | 0 when n > 0 -> String.mapi (fun k x -> if k = j then c else x) s
      | 1 when n > 0 -> String.sub s 0 j ^ String.sub s (j + 1) (n - j - 1)
      | 2 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | _ -> String.sub s 0 i)
  in
  QCheck.Test.make ~name:"parse agrees with the oracle on one-byte edits" ~count:3000
    (QCheck.make ~print:String.escaped gen)
    same_parse

let test_codec_edge_cases () =
  List.iter
    (fun s -> check (Printf.sprintf "parse %S agrees with the oracle" s) true (same_parse s))
    [
      "";
      "0";
      "-0";
      "007";
      "-";
      "--1";
      "+5";
      "1e5";
      "1.5";
      "-1.5e-3";
      "123456789012345678";
      "-123456789012345678";
      "1234567890123456789";
      "4611686018427387903";
      "4611686018427387904";
      "-4611686018427387904";
      "-4611686018427387905";
      "99999999999999999999";
      "12x";
      "[1,2";
      "[1,]";
      "{\"a\":1,\"a\":2}";
      "{\"a\" 1}";
      "\"abc";
      "\"abc\\";
      "\"a\\q\"";
      "\"\\u00e9\\u0041\\u2603\"";
      "\"\\u12\"";
      "\"\\u12g4\"";
      "\"tab\\tnl\\nq\\\"bs\\\\sl\\/b\\bf\\f\"";
      " null ";
      "nul";
      "tru";
      "falsey";
      "[ ]";
      "{ }";
      "x";
      "1 2";
    ];
  List.iter
    (fun v ->
      Alcotest.(check string)
        "emits the oracle's bytes" (Oracle.to_string (to_oracle v)) (Cert.Json.to_string v))
    [
      Cert.Json.Int min_int;
      Cert.Json.Int max_int;
      Cert.Json.List [ Cert.Json.Float nan; Cert.Json.Float (-0.0); Cert.Json.Float infinity ];
      Cert.Json.Obj [ (String.init 256 Char.chr, Cert.Json.Str (String.init 256 Char.chr)) ];
      Cert.Json.Obj [];
      Cert.Json.List [];
    ]

(* ---- the tree codec, the oracle of the streaming one ---- *)

(* Replies, classification records and certificates were once built as a
   [Cert.Json.t] tree and printed, or parsed to a tree and walked; journal
   entries and checked lines were read the same way. These are those
   functions, copied verbatim but for module paths: the streaming writers
   must emit their bytes, and the readers must give their values and
   their error strings. *)
module Tree_certificate = struct
  [@@@warning "-32"]

  open Cert
  open Cert.Certificate

let ints xs = Json.List (List.map (fun i -> Json.Int i) xs)
let int_lists xss = Json.List (List.map ints xss)
let pairs ps = Json.List (List.map (fun (a, b) -> Json.List [ Json.Int a; Json.Int b ]) ps)
let cap_to_json = function Fin n -> Json.Int n | Inf -> Json.Str "inf"

let to_obj = function
  | Trivial { why } -> Json.Obj [ ("kind", Json.Str "trivial"); ("why", Json.Str why) ]
  | Cut c ->
      Json.Obj
        [
          ("kind", Json.Str "cut");
          ("vertices", Json.Int c.vertices);
          ("source", Json.Int c.source);
          ("sink", Json.Int c.sink);
          ( "edges",
            Json.List
              (List.map
                 (fun (s, d, cap) -> Json.List [ Json.Int s; Json.Int d; cap_to_json cap ])
                 c.edges) );
          ("flow", ints c.flow);
          ("cut_edges", ints c.cut_edges);
          ("fact_edges", pairs c.fact_edges);
          ("forced", pairs c.forced);
          ("weights", pairs c.weights);
          ("inf_path", ints c.inf_path);
        ]
  | Bounds b ->
      Json.Obj
        ([ ("kind", Json.Str "bounds"); ("weights", pairs b.fact_weights) ]
        @ (match b.covers with None -> [] | Some cs -> [ ("covers", int_lists cs) ])
        @
        match b.dual with
        | None -> []
        | Some ys -> [ ("dual", Json.List (List.map (fun y -> Json.Float y) ys)) ])
  | Hardness h ->
      Json.Obj
        [
          ("kind", Json.Str "hardness");
          ("language", Json.Str h.language);
          ("words", Json.List (List.map (fun w -> Json.Str w) h.words));
          ( "facts",
            Json.List
              (List.map
                 (fun (id, src, label, dst) ->
                   Json.List [ Json.Int id; Json.Int src; Json.Str label; Json.Int dst ])
                 h.facts) );
          ("f_in", Json.Int h.f_in);
          ("f_out", Json.Int h.f_out);
          ("matches", int_lists h.matches);
          ("condensed", int_lists h.condensed);
          ("path_length", Json.Int h.path_length);
        ]
  | Opaque { algorithm } ->
      Json.Obj [ ("kind", Json.Str "opaque"); ("algorithm", Json.Str algorithm) ]

let ( let* ) = Result.bind
let field_err what = Error (Printf.sprintf "certificate: missing or ill-typed field %S" what)

let get obj what conv =
  match Option.bind (Json.member what obj) conv with Some v -> Ok v | None -> field_err what

let map_all what conv items =
  let vs = List.filter_map conv items in
  if List.length vs = List.length items then Ok vs else field_err what

let ints_of what = function
  | Json.List items -> map_all what Json.to_int_opt items
  | _ -> field_err what

let get_ints obj what =
  match Json.member what obj with Some v -> ints_of what v | None -> field_err what

let get_int_lists obj what =
  match Json.member what obj with
  | Some (Json.List items) ->
      map_all what (fun v -> Result.to_option (ints_of what v)) items
  | _ -> field_err what

let get_pairs obj what =
  match Json.member what obj with
  | Some (Json.List items) ->
      map_all what
        (function
          | Json.List [ Json.Int a; Json.Int b ] -> Some (a, b)
          | _ -> None)
        items
  | _ -> field_err what

let cap_of_json = function
  | Json.Int n -> Some (Fin n)
  | Json.Str "inf" -> Some Inf
  | _ -> None

let of_obj obj =
  let* kind = get obj "kind" Json.to_str_opt in
  match kind with
  | "trivial" ->
      let* why = get obj "why" Json.to_str_opt in
      Ok (Trivial { why })
  | "cut" ->
      let* vertices = get obj "vertices" Json.to_int_opt in
      let* source = get obj "source" Json.to_int_opt in
      let* sink = get obj "sink" Json.to_int_opt in
      let* edges =
        match Json.member "edges" obj with
        | Some (Json.List items) ->
            map_all "edges"
              (function
                | Json.List [ Json.Int s; Json.Int d; cap ] ->
                    Option.map (fun c -> (s, d, c)) (cap_of_json cap)
                | _ -> None)
              items
        | _ -> field_err "edges"
      in
      let* flow = get_ints obj "flow" in
      let* cut_edges = get_ints obj "cut_edges" in
      let* fact_edges = get_pairs obj "fact_edges" in
      let* forced = get_pairs obj "forced" in
      let* weights = get_pairs obj "weights" in
      let* inf_path = get_ints obj "inf_path" in
      Ok
        (Cut
           {
             vertices;
             source;
             sink;
             edges;
             flow;
             cut_edges;
             fact_edges;
             forced;
             weights;
             inf_path;
           })
  | "bounds" ->
      let* fact_weights = get_pairs obj "weights" in
      let* covers =
        match Json.member "covers" obj with
        | None -> Ok None
        | Some _ ->
            let* cs = get_int_lists obj "covers" in
            Ok (Some cs)
      in
      let* dual =
        match Json.member "dual" obj with
        | None -> Ok None
        | Some (Json.List items) ->
            let* ys = map_all "dual" Json.to_float_opt items in
            Ok (Some ys)
        | Some _ -> field_err "dual"
      in
      Ok (Bounds { fact_weights; covers; dual })
  | "hardness" ->
      let* language = get obj "language" Json.to_str_opt in
      let* words =
        match Json.member "words" obj with
        | Some (Json.List items) -> map_all "words" Json.to_str_opt items
        | _ -> field_err "words"
      in
      let* facts =
        match Json.member "facts" obj with
        | Some (Json.List items) ->
            map_all "facts"
              (function
                | Json.List [ Json.Int id; Json.Int src; Json.Str label; Json.Int dst ] ->
                    Some (id, src, label, dst)
                | _ -> None)
              items
        | _ -> field_err "facts"
      in
      let* f_in = get obj "f_in" Json.to_int_opt in
      let* f_out = get obj "f_out" Json.to_int_opt in
      let* matches = get_int_lists obj "matches" in
      let* condensed = get_int_lists obj "condensed" in
      let* path_length = get obj "path_length" Json.to_int_opt in
      Ok (Hardness { language; words; facts; f_in; f_out; matches; condensed; path_length })
  | "opaque" ->
      let* algorithm = get obj "algorithm" Json.to_str_opt in
      Ok (Opaque { algorithm })
  | other -> Error (Printf.sprintf "unknown certificate kind %S" other)

end

module Tree_proto = struct
  [@@@warning "-32"]

  open Cert
  open Cert.Proto

let value_to_json = function Value.Finite n -> Json.Int n | Value.Infinite -> Json.Str "inf"

let value_of_json = function
  | Json.Int n -> Some (Value.Finite n)
  | Json.Str "inf" -> Some Value.Infinite
  | _ -> None

let opt field conv = function None -> [] | Some v -> [ (field, conv v) ]

let witness_fields = function
  | None -> []
  | Some w -> [ ("witness", Json.List (List.map (fun i -> Json.Int i) w)) ]

(* Emitted only when non-empty, so untraced replies are byte-identical to
   the pre-telemetry schema. *)
let stages_fields = function
  | [] -> []
  | sts -> [ ("stages", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) sts)) ]

let cert_fields = function None -> [] | Some c -> [ ("cert", Tree_certificate.to_obj c) ]

(* The head of every reply: the members a supervisor restamps when it
   settles a worker's reply, first and in this order, so that
   [reply_head] below is a prefix of [reply_to_json]. *)
let head_fields (r : reply) =
  [
    ("v", Json.Int schema_version);
    ("id", Json.Str r.id);
    ("attempts", Json.Int r.attempts);
    ("steps", Json.Int r.steps);
    ("wall_s", Json.Float r.wall_s);
  ]

let reply_to_obj (r : reply) =
  let common =
    head_fields r
    @ stages_fields r.stages
    @ opt "trace" (fun s -> Json.Str s) r.trace
  in
  let rest =
    match r.verdict with
    | V_exact { value; algorithm; witness } ->
        [
          ("outcome", Json.Str "exact");
          ("value", value_to_json value);
          ("algorithm", Json.Str algorithm);
        ]
        @ witness_fields witness
    | V_bounded { lower; upper; witness; reason } ->
        [
          ("outcome", Json.Str "bounded");
          ("lower", value_to_json lower);
          ("upper", value_to_json upper);
          ("reason", Json.Str reason);
        ]
        @ witness_fields witness
    | V_failed { kind; message; retriable } ->
        [
          ("outcome", Json.Str "error");
          ("kind", Json.Str kind);
          ("message", Json.Str message);
          ("retriable", Json.Bool retriable);
        ]
  in
  Json.Obj (common @ rest @ cert_fields r.cert)

let reply_to_json r = Json.to_string (reply_to_obj r)

let classification_to_obj (c : classification) =
  Json.Obj
    ([
       ("v", Json.Int schema_version);
       ("kind", Json.Str "classification");
       ("language", Json.Str c.c_language);
       ("verdict", Json.Str c.c_verdict);
     ]
    @ cert_fields c.c_cert)

let classification_to_json c = Json.to_string (classification_to_obj c)

let field_err what = Error (Printf.sprintf "missing or ill-typed field %S" what)

let get obj what conv = match Option.bind (Json.member what obj) conv with
  | Some v -> Ok v
  | None -> field_err what

let get_opt obj what conv =
  match Json.member what obj with
  | None | Some Json.Null -> Ok None
  | Some v -> ( match conv v with Some v -> Ok (Some v) | None -> field_err what)

let ( let* ) = Result.bind

let check_version obj =
  match Json.member "v" obj with
  | None -> Ok ()
  | Some (Json.Int v) when v = schema_version -> Ok ()
  | Some (Json.Int v) ->
      Error
        (Printf.sprintf "unsupported reply schema version %d (this reader understands v%d)" v
           schema_version)
  | Some _ -> field_err "v"

let witness_of obj =
  match Json.member "witness" obj with
  | None | Some Json.Null -> Ok None
  | Some (Json.List items) ->
      let ints = List.filter_map Json.to_int_opt items in
      if List.length ints = List.length items then Ok (Some ints) else field_err "witness"
  | Some _ -> field_err "witness"

let stages_of obj =
  match Json.member "stages" obj with
  | None | Some Json.Null -> Ok []
  | Some (Json.Obj fields) ->
      let parsed =
        List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float_opt v)) fields
      in
      if List.length parsed = List.length fields then Ok parsed else field_err "stages"
  | Some _ -> field_err "stages"

let cert_of obj =
  match Json.member "cert" obj with
  | None | Some Json.Null -> Ok None
  | Some v ->
      let* c = Tree_certificate.of_obj v in
      Ok (Some c)

let reply_of_obj obj =
  let* () = check_version obj in
  let* id = get obj "id" Json.to_str_opt in
  let* attempts = get obj "attempts" Json.to_int_opt in
  let* steps = get obj "steps" Json.to_int_opt in
  let* wall_s = get obj "wall_s" Json.to_float_opt in
  let* stages = stages_of obj in
  let* trace = get_opt obj "trace" Json.to_str_opt in
  let* outcome = get obj "outcome" Json.to_str_opt in
  let* verdict =
    match outcome with
    | "exact" ->
        let* value = get obj "value" value_of_json in
        let* algorithm = get obj "algorithm" Json.to_str_opt in
        let* witness = witness_of obj in
        Ok (V_exact { value; algorithm; witness })
    | "bounded" ->
        let* lower = get obj "lower" value_of_json in
        let* upper = get obj "upper" value_of_json in
        let* reason = get obj "reason" Json.to_str_opt in
        let* witness = witness_of obj in
        Ok (V_bounded { lower; upper; witness; reason })
    | "error" ->
        let* kind = get obj "kind" Json.to_str_opt in
        let* message = get obj "message" Json.to_str_opt in
        let* retriable = get obj "retriable" (function Json.Bool b -> Some b | _ -> None) in
        Ok (V_failed { kind; message; retriable })
    | other -> Error (Printf.sprintf "unknown outcome %S" other)
  in
  let* cert = cert_of obj in
  Ok { id; attempts; steps; wall_s; stages; trace; verdict; cert }

let reply_of_json s =
  let* v = Json.parse s in
  reply_of_obj v

let classification_of_obj obj =
  let* () = check_version obj in
  let* kind = get obj "kind" Json.to_str_opt in
  let* () = if kind = "classification" then Ok () else Error "not a classification record" in
  let* c_language = get obj "language" Json.to_str_opt in
  let* c_verdict = get obj "verdict" Json.to_str_opt in
  let* c_cert = cert_of obj in
  Ok { c_language; c_verdict; c_cert }

end

module Tree_journal = struct
  open Cert
  open Runner.Journal

let entry_of_json line =
  let ( let* ) = Result.bind in
  let* v = Json.parse line in
  let str what =
    match Option.bind (Json.member what v) Json.to_str_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" what)
  in
  let* event = str "event" in
  let* id = str "id" in
  let* digest = str "job" in
  match event with
  | "start" -> Ok (Started { id; digest })
  | "done" -> begin
      match Json.member "reply" v with
      | None -> Error "done entry without a reply"
      | Some r ->
          let* reply = Tree_proto.reply_of_obj r in
          Ok (Done { id; digest; reply })
    end
  | other -> Error (Printf.sprintf "unknown journal event %S" other)

end

module Tree_checker = struct
  open Cert

  let ( let* ) = Result.bind

let check_line line =
  match Json.parse line with
  | Error e -> Error (Printf.sprintf "unparseable JSON: %s" e)
  | Ok v -> (
      match Json.member "kind" v with
      | Some (Json.Str "classification") ->
          let* c = Tree_proto.classification_of_obj v in
          let* () = Checker.check_classification c in
          Ok "classification"
      | _ ->
          let* r = Tree_proto.reply_of_obj v in
          let* () = Checker.check_reply r in
          Ok (Proto.verdict_name r.verdict))
end

(* ---- the streaming codec against the tree codec ---- *)

module Json = Cert.Json
module Value = Cert.Value

let gen_bytes = QCheck.Gen.(string_size ~gen:char (int_bound 6))

let gen_int =
  QCheck.Gen.(oneof [ int_range (-3) 40; oneofl [ 0; min_int; max_int; 1_000_000_007 ]; int ])

let gen_ints = QCheck.Gen.(list_size (int_bound 5) gen_int)

let gen_float =
  QCheck.Gen.(
    frequency
      [ (6, float); (3, oneofl [ 0.; -0.; 1e-05; 0.5; 2.; 1e300 ]); (1, oneofl [ nan; infinity ]) ])

let gen_value =
  QCheck.Gen.(frequency [ (4, map (fun n -> Value.Finite n) gen_int); (1, return Value.Infinite) ])

let gen_cap =
  QCheck.Gen.(
    frequency [ (4, map (fun n -> Certificate.Fin n) gen_int); (1, return Certificate.Inf) ])

let gen_cert =
  let open QCheck.Gen in
  let pairs = list_size (int_bound 4) (pair gen_int gen_int) in
  let int_lists = list_size (int_bound 3) gen_ints in
  oneof
    [
      map (fun why -> Certificate.Trivial { why }) gen_bytes;
      (let* vertices = gen_int and* source = gen_int and* sink = gen_int in
       let* edges = list_size (int_bound 5) (triple gen_int gen_int gen_cap) in
       let* flow = gen_ints and* cut_edges = gen_ints and* fact_edges = pairs in
       let+ forced = pairs and+ weights = pairs and+ inf_path = gen_ints in
       Certificate.Cut
         { vertices; source; sink; edges; flow; cut_edges; fact_edges; forced; weights; inf_path });
      (let* fact_weights = pairs and* covers = opt int_lists in
       let+ dual = opt (list_size (int_bound 4) gen_float) in
       Certificate.Bounds { fact_weights; covers; dual });
      (let* language = gen_bytes and* words = list_size (int_bound 3) gen_bytes in
       let* facts = list_size (int_bound 4) (quad gen_int gen_int gen_bytes gen_int) in
       let* f_in = gen_int and* f_out = gen_int and* matches = int_lists in
       let+ condensed = int_lists and+ path_length = gen_int in
       Certificate.Hardness { language; words; facts; f_in; f_out; matches; condensed; path_length });
      map (fun algorithm -> Certificate.Opaque { algorithm }) gen_bytes;
    ]

let gen_reply =
  let open QCheck.Gen in
  let witness = opt gen_ints in
  let* id = gen_bytes and* attempts = gen_int and* steps = gen_int and* wall_s = gen_float in
  let* stages = list_size (int_bound 3) (pair gen_bytes gen_float) in
  let* trace = opt gen_bytes in
  let* verdict =
    oneof
      [
        (let+ value = gen_value and+ algorithm = gen_bytes and+ witness = witness in
         Proto.V_exact { value; algorithm; witness });
        (let+ lower = gen_value and+ upper = gen_value and+ witness = witness
         and+ reason = gen_bytes in
         Proto.V_bounded { lower; upper; witness; reason });
        (let+ kind = gen_bytes and+ message = gen_bytes and+ retriable = bool in
         Proto.V_failed { kind; message; retriable });
      ]
  in
  let+ cert = opt gen_cert in
  { Proto.id; attempts; steps; wall_s; stages; trace; verdict; cert }

let gen_classification =
  let open QCheck.Gen in
  let+ c_language = gen_bytes
  and+ c_verdict = oneof [ oneofl [ "np-hard"; "inconclusive" ]; gen_bytes ]
  and+ c_cert = opt gen_cert in
  { Proto.c_language; c_verdict; c_cert }

(* A line of a reply stream: a reply or a classification record. *)
let gen_line =
  QCheck.Gen.(
    frequency
      [
        (4, map Proto.reply_to_json gen_reply);
        (1, map Proto.classification_to_json gen_classification);
      ])

let prop_writers_match_tree =
  QCheck.Test.make ~name:"writers emit the tree codec's bytes" ~count:1500
    (QCheck.make
       QCheck.Gen.(
         triple gen_reply gen_classification gen_cert))
    (fun (r, c, cert) ->
      String.equal (Proto.reply_to_json r) (Tree_proto.reply_to_json r)
      && String.equal (Proto.classification_to_json c) (Tree_proto.classification_to_json c)
      && String.equal (Certificate.to_json cert) (Json.to_string (Tree_certificate.to_obj cert)))

(* ---- variants of a line ---- *)

(* Applies [f] to every node, children first. *)
let rec map_tree f = function
  | Json.Obj fs -> f (Json.Obj (List.map (fun (k, v) -> (k, map_tree f v)) fs))
  | Json.List vs -> f (Json.List (List.map (map_tree f) vs))
  | v -> f v

let chance rng p = Random.State.float rng 1.0 < p
let insert_at rng x xs =
  let i = Random.State.int rng (List.length xs + 1) in
  List.filteri (fun j _ -> j < i) xs @ (x :: List.filteri (fun j _ -> j >= i) xs)

let shuffle rng xs =
  List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) xs))

(* A leaf of another type, or the same type with another value. *)
let swap rng = function
  | Json.Int n -> (
      match Random.State.int rng 3 with
      | 0 -> Json.Float (float_of_int n)
      | 1 -> Json.Str (string_of_int n)
      | _ -> Json.Null)
  | Json.Float f -> if chance rng 0.5 then Json.Int (truncate f) else Json.Str "inf"
  | Json.Str s -> (
      match Random.State.int rng 3 with
      | 0 -> Json.Int (String.length s)
      | 1 -> Json.Str "inf"
      | _ -> Json.Bool true)
  | Json.Null -> Json.Int 0
  | Json.Bool b -> Json.Bool (not b)
  | Json.List [] -> Json.Obj []
  | Json.Obj [] -> Json.List []
  | v -> v

let mutate rng = function
  | `Reorder ->
      map_tree (function Json.Obj fs when chance rng 0.5 -> Json.Obj (shuffle rng fs) | v -> v)
  | `Duplicate ->
      map_tree (function
        | Json.Obj (_ :: _ as fs) when chance rng 0.4 ->
            let k, v = List.nth fs (Random.State.int rng (List.length fs)) in
            let v =
              if chance rng 0.5 then map_tree (fun v -> if chance rng 0.3 then swap rng v else v) v
              else v
            in
            Json.Obj (insert_at rng (k, v) fs)
        | v -> v)
  | `Unknown ->
      map_tree (function
        | Json.Obj fs when chance rng 0.4 ->
            let junk =
              [ Json.Null; Json.Int 7; Json.List [ Json.Str "x"; Json.Obj [] ]; Json.Float 1.5 ]
            in
            Json.Obj (insert_at rng ("zz", List.nth junk (Random.State.int rng 4)) fs)
        | v -> v)
  | `Swap -> map_tree (fun v -> if chance rng 0.08 then swap rng v else v)
  | `Resize ->
      (* Arrays one element longer or shorter: tuples of the wrong length. *)
      map_tree (function
        | Json.List (_ :: _ as vs) when chance rng 0.15 ->
            let i = Random.State.int rng (List.length vs) in
            if chance rng 0.5 then Json.List (List.filteri (fun j _ -> j <> i) vs)
            else Json.List (insert_at rng (List.nth vs i) vs)
        | v -> v)

(* Prints with random whitespace between tokens and random, still valid,
   escapes inside strings. *)
let print_loose rng v =
  let b = Buffer.create 256 in
  let ws () =
    if chance rng 0.2 then
      Buffer.add_string b (List.nth [ " "; "\n"; "\t "; "\r\n" ] (Random.State.int rng 4))
  in
  let str s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' || c = '\\' || Char.code c < 0x20 || chance rng 0.2 then
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        else if c = '/' && chance rng 0.5 then Buffer.add_string b "\\/"
        else Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  in
  let rec go v =
    ws ();
    (match v with
    | Json.Str s -> str s
    | Json.List vs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then begin
              ws ();
              Buffer.add_char b ','
            end;
            go v)
          vs;
        ws ();
        Buffer.add_char b ']'
    | Json.Obj fs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then begin
              ws ();
              Buffer.add_char b ','
            end;
            ws ();
            str k;
            ws ();
            Buffer.add_char b ':';
            go v)
          fs;
        ws ();
        Buffer.add_char b '}'
    | v -> Buffer.add_string b (Json.to_string v));
    ws ()
  in
  go v;
  Buffer.contents b

let one_byte_edit rng s =
  let n = String.length s in
  let i = Random.State.int rng (n + 1) and c = Char.chr (Random.State.int rng 256) in
  let j = min i (n - 1) in
  match Random.State.int rng 4 with
  | 0 when n > 0 -> String.mapi (fun k x -> if k = j then c else x) s
  | 1 when n > 0 -> String.sub s 0 j ^ String.sub s (j + 1) (n - j - 1)
  | 2 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  | _ -> String.sub s 0 i

let variant rng line =
  match Json.parse line with
  | Error _ -> line
  | Ok tree -> (
      match Random.State.int rng 8 with
      | 0 | 1 -> one_byte_edit rng line
      | 2 -> Json.to_string (mutate rng `Reorder tree)
      | 3 -> Json.to_string (mutate rng `Duplicate tree)
      | 4 -> Json.to_string (mutate rng `Unknown tree)
      | 5 -> print_loose rng tree
      | 6 -> Json.to_string (mutate rng `Resize tree)
      | _ -> Json.to_string (mutate rng `Swap tree))

let gen_variant =
  QCheck.Gen.(
    let* line = gen_line in
    fun rng -> if chance rng 0.1 then line else variant rng line)

(* The certificate a line holds, if any, on its own. *)
let cert_of_line line =
  match Json.parse line with Ok v -> Option.map Json.to_string (Json.member "cert" v) | Error _ -> None

let same_reading line =
  let done_payload = {|{"event":"done","id":"x","job":"d","reply":|} ^ line ^ "}" in
  Proto.reply_of_json line = Tree_proto.reply_of_json line
  && Checker.check_line line = Tree_checker.check_line line
  && Runner.Journal.entry_of_json done_payload = Tree_journal.entry_of_json done_payload
  &&
  match cert_of_line line with
  | None -> true
  | Some c -> Certificate.of_json c = Result.bind (Json.parse c) Tree_certificate.of_obj

let prop_readers_match_tree =
  QCheck.Test.make ~name:"readers give the tree codec's values and errors" ~count:4000
    (QCheck.make ~print:String.escaped gen_variant)
    same_reading

(* Every committed accept line re-encodes to its own bytes. *)
let test_corpus_reencodes () =
  List.iter
    (fun file ->
      List.iteri
        (fun i line ->
          let again =
            match Json.read line Proto.read_record with
            | Ok (Ok (Proto.Reply r)) -> Proto.reply_to_json r
            | Ok (Ok (Proto.Classification c)) -> Proto.classification_to_json c
            | Ok (Error e) | Error e -> Alcotest.failf "%s:%d does not read: %s" file (i + 1) e
          in
          Alcotest.(check string) (Printf.sprintf "%s:%d re-encodes" file (i + 1)) line again)
        (lines_of file))
    (corpus_files "accept_")

(* ---- a journal written by the tree codec ---- *)

(* [batch_6743fcc.journal] was written by [rpq batch --journal] at commit
   6743fcc, before the streaming codec: a BCL and a local cut, a bounded
   reply whose bounds carry covers and a dual, an exact ILP reply, a
   trivial one and an error. It must load to the entries the tree codec
   reads from its payloads, and each settled line must be the journaled
   reply's bytes, which re-encode to themselves. *)
let journal_fixture =
  Filename.concat
    (if Sys.file_exists "journals" then "journals" else Filename.concat "test" "journals")
    "batch_6743fcc.journal"

let test_tree_codec_journal () =
  let module J = Runner.Journal in
  let text = In_channel.with_open_bin journal_fixture In_channel.input_all in
  (* Each record is <len>:<crc>:<seq>:<payload> on its own line. *)
  let payloads =
    List.filter_map
      (fun l ->
        match String.split_on_char ':' l with
        | _len :: _crc :: _seq :: (_ :: _ as payload) -> Some (String.concat ":" payload)
        | _ -> None)
      (List.tl (String.split_on_char '\n' text))
  in
  let rep = match J.load journal_fixture with Ok r -> r | Error e -> Alcotest.failf "load: %s" e in
  check "twelve records" true (List.length payloads = 12 && rep.J.records = 12);
  List.iteri
    (fun i p ->
      match Tree_journal.entry_of_json p with
      | Error e -> Alcotest.failf "record %d: the tree codec refuses it: %s" (i + 1) e
      | Ok e ->
          check (Printf.sprintf "record %d loads to the same entry" (i + 1)) true
            (List.nth rep.J.entries i = e))
    payloads;
  let kinds =
    Hashtbl.fold
      (fun id (s : J.settled) acc ->
        Alcotest.(check string)
          (id ^ ": the settled line re-encodes")
          s.line (Proto.reply_to_json s.reply);
        check (id ^ ": the settled line is in the journal") true
          (List.exists (fun p -> String.ends_with ~suffix:(",\"reply\":" ^ s.line ^ "}") p) payloads);
        let kind =
          match (s.reply.Proto.verdict, s.reply.Proto.cert) with
          | Proto.V_failed _, _ -> "error"
          | Proto.V_bounded _, Some (Certificate.Bounds { covers = Some _; dual = Some _; _ }) ->
              "bounded covers+dual"
          | _, Some c -> Certificate.kind_name c
          | _, None -> "none"
        in
        kind :: acc)
      rep.J.settled []
  in
  Alcotest.(check (list string))
    "what the journal holds"
    [ "bounded covers+dual"; "bounds"; "cut"; "cut"; "error"; "trivial" ]
    (List.sort compare kinds)

let () =
  Alcotest.run "certcheck"
    [
      ( "generated",
        [
          Alcotest.test_case "all solver paths check" `Quick test_generated_replies_check;
          Alcotest.test_case "bounded reply checks" `Quick test_bounded_reply_checks;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "accept corpus" `Quick test_corpus_accepts;
          Alcotest.test_case "reject corpus" `Quick test_corpus_rejects;
        ] );
      ( "tampering",
        [
          Alcotest.test_case "programmatic tampers" `Quick test_programmatic_tampers;
          Alcotest.test_case "unknown version" `Quick test_unknown_version_rejected;
          Alcotest.test_case "duplicate cover entries count once" `Quick
            test_cover_duplicates_count_once;
          Alcotest.test_case "cert json roundtrip" `Quick test_cert_roundtrip;
          Alcotest.test_case "byte-flip fuzzer" `Quick test_byte_flip_fuzzer;
        ] );
      ( "json codec",
        Alcotest.test_case "edge cases agree with the oracle" `Quick test_codec_edge_cases
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_emit_matches_oracle;
               prop_parse_bytes_matches_oracle;
               prop_parse_edits_match_oracle;
             ] );
      ( "replies",
        [
          Alcotest.test_case "accept corpus re-encodes byte for byte" `Quick test_corpus_reencodes;
          Alcotest.test_case "a journal the tree codec wrote loads alike" `Quick
            test_tree_codec_journal;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_writers_match_tree; prop_readers_match_tree ]
      );
    ]
