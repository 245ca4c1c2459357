open Cert
open Proto

type entry =
  | Started of { id : string; digest : string }
  | Done of { id : string; digest : string; reply : reply }

(* The digest covers the job as originally submitted (including its full
   budget, before any retry degradation), so a resumed run only reuses a
   recorded answer when the job text is byte-identical. *)
let job_digest j = Digest.to_hex (Digest.string (job_to_json j))

(* Digest of the job with its id blanked: two clients submitting the same
   work under different ids canonicalize to the same key. The serve loop
   journals and caches under this digest; batch journals keep [job_digest]
   so resume stays strictly per-submission. *)
let canonical_digest j = job_digest { j with id = "" }

(* A [Done] payload is the object {"event":"done","id":..,"job":..,"reply":..}
   spliced around the reply's own line: the same bytes as encoding the
   whole object, since the reply is its last member. *)
let done_payload ~id ~digest reply_json =
  let b = Buffer.create (String.length reply_json + 96) in
  Buffer.add_string b {|{"event":"done","id":|};
  Json.add_string b id;
  Json.add_member b "job";
  Json.add_string b digest;
  Json.add_member b "reply";
  Buffer.add_string b reply_json;
  Buffer.add_char b '}';
  Buffer.contents b

let entry_to_json = function
  | Started { id; digest } ->
      Json.to_string
        (Json.Obj [ ("event", Json.Str "start"); ("id", Json.Str id); ("job", Json.Str digest) ])
  | Done { id; digest; reply } -> done_payload ~id ~digest (reply_to_json reply)

(* An entry and, for [Done], the bytes of its [reply] member: the
   settled line as the supervisor wrote it. *)
let read_entry r =
  let event = ref Json.Absent and id = ref Json.Absent and job = ref Json.Absent in
  let reply = ref Json.Absent in
  Json.fields r (function
    | "event" -> Json.fill r event Json.str
    | "id" -> Json.fill r id Json.str
    | "job" -> Json.fill r job Json.str
    | "reply" -> Json.fill r reply (Json.spanned read_reply)
    | _ -> Json.skip r);
  let ( let* ) = Result.bind in
  let str what = function
    | Json.Got s -> Ok s
    | Json.Absent | Json.Ill -> Error (Printf.sprintf "missing or ill-typed field %S" what)
  in
  let* event = str "event" !event in
  let* id = str "id" !id in
  let* digest = str "job" !job in
  match (event, !reply) with
  | "start", _ -> Ok (Started { id; digest }, "")
  | "done", Json.Got (reply, line) ->
      let* reply = reply in
      Ok (Done { id; digest; reply }, line)
  | "done", (Json.Absent | Json.Ill) -> Error "done entry without a reply"
  | other, _ -> Error (Printf.sprintf "unknown journal event %S" other)

let entry_of_json line = Result.map fst (Result.join (Json.read line read_entry))

let append_s = Obs.Metrics.histogram "runner.journal_append_s"
let fsync_s = Obs.Metrics.histogram "journal.fsync_s"
let compact_s = Obs.Metrics.histogram "journal.compact_s"

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum  *)
(* every v2 record carries. Table-driven; OCaml's 63-bit ints hold the  *)
(* 32-bit state without masking gymnastics.                             *)
(* ------------------------------------------------------------------ *)

(* Slicing-by-8: [t.(k * 256 + i)] is the state byte [i] leaves after
   [k] more zero bytes, so one step folds eight bytes with eight
   independent lookups. Row 0 is the bytewise table. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for i = 0 to 255 do
       let c = ref i in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(i) <- !c
     done;
     for i = 256 to (8 * 256) - 1 do
       let prev = t.(i - 256) in
       t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
     done;
     t)

(* Folds bytes [off, off + len) of [s] into the running (pre-inversion)
   state [c]: a checksum can span several strings without joining them. *)
let crc_update c s off len =
  let t = Lazy.force crc_tables in
  let byte i = Char.code (String.unsafe_get s i) in
  let c = ref c and i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let j = !i in
    let word = byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16) lor (byte (j + 3) lsl 24) in
    let x = !c lxor word in
    c :=
      t.((7 * 256) + (x land 0xFF))
      lxor t.((6 * 256) + ((x lsr 8) land 0xFF))
      lxor t.((5 * 256) + ((x lsr 16) land 0xFF))
      lxor t.((4 * 256) + (x lsr 24))
      lxor t.((3 * 256) + byte (j + 4))
      lxor t.((2 * 256) + byte (j + 5))
      lxor t.(256 + byte (j + 6))
      lxor t.(byte (j + 7));
    i := j + 8
  done;
  while !i < stop do
    c := t.((!c lxor byte !i) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c

let crc_init = 0xFFFFFFFF
let crc_final c = c lxor 0xFFFFFFFF land 0xFFFFFFFF
let crc32 s ~off ~len = crc_final (crc_update crc_init s off len)

(* ------------------------------------------------------------------ *)
(* v2 on-disk format.                                                  *)
(*                                                                     *)
(*   rpq-journal-v2\n                                                  *)
(*   <len>:<crc32 hex8>:<seq>:<payload>\n      (one per record)        *)
(*                                                                     *)
(* [len] is the payload's byte length (self-delimiting framing — the    *)
(* payload is opaque), [crc] covers "<seq>:<payload>" so a corrupted    *)
(* sequence number cannot masquerade as valid, [seq] is strictly        *)
(* increasing from 1. A non-empty file that neither starts with the    *)
(* header nor is a torn prefix of it is refused.                        *)
(* ------------------------------------------------------------------ *)

let header = "rpq-journal-v2"
let header_line = header ^ "\n"

(* Writes one framed record; the payload goes to the channel as is. *)
let output_frame oc ~seq payload =
  let seq_s = string_of_int seq ^ ":" in
  let crc =
    crc_update (crc_update crc_init seq_s 0 (String.length seq_s)) payload 0
      (String.length payload)
  in
  output_string oc (Printf.sprintf "%d:%08x:%s" (String.length payload) (crc_final crc) seq_s);
  output_string oc payload;
  output_char oc '\n'

type torn = Truncated | Bad_checksum

type settled = { digest : string; reply : reply; line : string }

type report = {
  entries : entry list;
  settled : (string, settled) Hashtbl.t;
  records : int;
  bytes : int;
  dead_bytes : int;
  torn_bytes : int;
  torn : torn option;
  last_seq : int;
}

(* A fresh value each time: [settled] is a table a caller may fill. *)
let empty_report () =
  {
    entries = [];
    settled = Hashtbl.create 0;
    records = 0;
    bytes = 0;
    dead_bytes = 0;
    torn_bytes = 0;
    torn = None;
    last_seq = 0;
  }

(* Dead bytes = everything a compaction would drop: [Started] records and
   every [Done] superseded by a later one for the same id (plus any torn
   tail, counted by the caller). *)
let dead_of sized =
  let last_done = Hashtbl.create 32 in
  List.iteri
    (fun i (e, _) -> match e with Done { id; _ } -> Hashtbl.replace last_done id i | Started _ -> ())
    sized;
  let dead = ref 0 in
  List.iteri
    (fun i (e, size) ->
      let live =
        match e with
        | Done { id; _ } -> Hashtbl.find_opt last_done id = Some i
        | Started _ -> false
      in
      if not live then dead := !dead + size)
    sized;
  !dead

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f')

(* Parse errors that must refuse a resume (mid-file corruption) carry a
   file:line position; line 1 is the header, record [k] is line [k+1]. *)
exception Refuse of int * string

(* Scan one v2 record starting at byte [o]. Returns [Ok (entry, size, seq)]
   or [Error torn_reason] — and a torn result, by construction, always
   consumes through end-of-file: every [Error] branch below fires only
   when the record's frame runs past [n]. Structural damage that is not a
   clean truncation raises {!Refuse}. *)
let scan_record s ~lineno ~prev_seq o =
  let n = String.length s in
  let refuse fmt = Printf.ksprintf (fun msg -> raise (Refuse (lineno, msg))) fmt in
  let scan_int what j0 =
    let j = ref j0 in
    while !j < n && is_digit s.[!j] do
      incr j
    done;
    if !j >= n then Error Truncated
    else if !j = j0 then refuse "malformed record: expected %s digits at byte %d" what j0
    else if s.[!j] <> ':' then refuse "malformed record: expected ':' after %s" what
    else if !j - j0 > 12 then refuse "absurd %s field (%d digits)" what (!j - j0)
    else Ok (int_of_string (String.sub s j0 (!j - j0)), !j + 1)
  in
  match scan_int "length" o with
  | Error t -> Error t
  | Ok (len, j) -> begin
      (* 8 lowercase hex digits, then ':'. *)
      if n - j < 9 then begin
        (* Fewer bytes than the field needs: torn iff what remains is a
           clean prefix of it (all hex — a partial write cut mid-field). *)
        let k = ref j in
        while !k < n && is_hex s.[!k] do
          incr k
        done;
        if !k = n then Error Truncated
        else refuse "malformed record: bad checksum field"
      end
      else begin
        let hex = String.sub s j 8 in
        if not (String.for_all is_hex hex) || s.[j + 8] <> ':' then
          refuse "malformed record: bad checksum field";
        let crc = int_of_string ("0x" ^ hex) in
        match scan_int "sequence" (j + 9) with
        | Error t -> Error t
        | Ok (seq, p) ->
            if n - p < len + 1 then Error Truncated
            else if s.[p + len] <> '\n' then
              refuse "malformed record: payload is not %d bytes (frame length lies)" len
            else begin
              if crc_final (crc_update crc_init s (j + 9) (p + len - (j + 9))) <> crc then begin
                if p + len + 1 = n then Error Bad_checksum
                else refuse "checksum mismatch (record seq %d)" seq
              end
              else if seq <= prev_seq then
                refuse "sequence regressed (%d after %d): not an append-only journal" seq
                  prev_seq
              else begin
                match Result.join (Json.read (String.sub s p len) read_entry) with
                | Error msg -> refuse "checksummed record with a bad payload: %s" msg
                | Ok (e, line) -> Ok (e, line, p + len + 1 - o, seq)
              end
            end
      end
    end

let parse_v2 path s =
  let n = String.length s in
  let hlen = String.length header_line in
  try
    let sized = ref [] in
    let settled = Hashtbl.create 64 in
    let o = ref hlen in
    let lineno = ref 2 in
    let last_seq = ref 0 in
    let torn = ref None in
    while !o < n && !torn = None do
      match scan_record s ~lineno:!lineno ~prev_seq:!last_seq !o with
      | Ok (e, line, size, seq) ->
          (* Last entry wins: a re-run job (e.g. after a failed
             re-verification) supersedes its earlier answer. *)
          (match e with
          | Done { id; digest; reply } -> Hashtbl.replace settled id { digest; reply; line }
          | Started _ -> ());
          sized := (e, size) :: !sized;
          last_seq := seq;
          o := !o + size;
          incr lineno
      | Error reason -> torn := Some reason
    done;
    let sized = List.rev !sized in
    let torn_bytes = n - !o in
    Ok
      {
        entries = List.map fst sized;
        settled;
        records = List.length sized;
        bytes = n;
        dead_bytes = dead_of sized + torn_bytes;
        torn_bytes;
        torn = (if torn_bytes = 0 then None else !torn);
        last_seq = !last_seq;
      }
  with Refuse (lineno, msg) -> Error (Printf.sprintf "%s:%d: %s" path lineno msg)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match read_file path with
  | exception Sys_error _ -> Ok (empty_report ())
  | s ->
      let n = String.length s in
      let hlen = String.length header_line in
      if n >= hlen && String.sub s 0 hlen = header_line then parse_v2 path s
      else if n < hlen && s = String.sub header_line 0 n then
        (* A crash during journal creation tore the header itself: an
           empty v2 journal with the header prefix as the torn tail. *)
        Ok
          {
            (empty_report ()) with
            bytes = n;
            dead_bytes = n;
            torn_bytes = n;
            torn = (if n = 0 then None else Some Truncated);
          }
      else Error (Printf.sprintf "%s:1: not an rpq journal (missing %s header)" path header)

(* ------------------------------------------------------------------ *)
(* Atomic rewrite: temp + fsync + rename. Shared by explicit            *)
(* compaction and the auto-compaction in open_load.                    *)
(* ------------------------------------------------------------------ *)

let fsync_dir dir =
  (* Makes the rename itself durable. Some filesystems refuse fsync on a
     directory fd — then the rename is only as durable as the mount, and
     there is nothing further we can do; don't fail the rewrite over it. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let rewrite_atomic path entries =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc header_line;
  List.iteri (fun i e -> output_frame oc ~seq:(i + 1) (entry_to_json e)) entries;
  flush oc;
  Unix.fsync fd;
  close_out oc;
  (* The temp file is complete and durable; the original is untouched. A
     crash here (the [journal.mid_compact] site simulates one) loses
     nothing: recovery sees the original journal, plus a stale .tmp that
     the next rewrite truncates. *)
  Resilience.Faults.crash_site "journal.mid_compact";
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path)

(* Compaction keeps, for every job id, only its last [Done] record (in
   first-settlement order); [Started] records are purely informational
   and are dropped — an unsettled job is simply re-dispatched on resume. *)
let compact_entries entries =
  let last_done = Hashtbl.create 32 in
  List.iteri
    (fun i e -> match e with Done { id; _ } -> Hashtbl.replace last_done id i | Started _ -> ())
    entries;
  List.filteri
    (fun i e -> match e with Done { id; _ } -> Hashtbl.find_opt last_done id = Some i | Started _ -> false)
    entries

type compact_stats = { kept : int; dropped : int; before_bytes : int; after_bytes : int }

(* ------------------------------------------------------------------ *)
(* Exclusive open for appending.                                        *)
(* ------------------------------------------------------------------ *)

type sync = Never | Per_line | Per_job

type t = {
  fd : Unix.file_descr;
  oc : out_channel;
  sync : sync;
  key : int * int;  (** (st_dev, st_ino) in the in-process lock registry *)
  mutable seq : int;
}

(* [Unix.lockf] record locks are per-process: a second open of the same
   journal from the *same* process would silently succeed, which is
   exactly the two-supervisors-one-journal bug the lock exists to catch
   (e.g. a batch resumed while a serve loop still holds the file). Keep a
   process-local registry keyed by inode alongside the kernel lock. *)
let locked : (int * int, unit) Hashtbl.t = Hashtbl.create 8

let lock_failure path reason =
  Error (Printf.sprintf "%s: journal is already locked by another supervisor (%s)" path reason)

let acquire path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let st = Unix.fstat fd in
  let key = (st.Unix.st_dev, st.Unix.st_ino) in
  if Hashtbl.mem locked key then begin
    Unix.close fd;
    lock_failure path "this process"
  end
  else begin
    match Unix.lockf fd Unix.F_TLOCK 0 with
    | () ->
        Hashtbl.replace locked key ();
        Ok (fd, key)
    | exception Unix.Unix_error ((Unix.EACCES | Unix.EAGAIN), _, _) ->
        Unix.close fd;
        lock_failure path "flock held"
    | exception e ->
        Unix.close fd;
        raise e
  end

let release fd key =
  Hashtbl.remove locked key;
  (* Closing the descriptor drops the lockf lock. *)
  try Unix.close fd with Unix.Unix_error _ -> ()

let default_compact_ratio = 0.5

let open_load ?(sync = Per_job) ?(compact_ratio = default_compact_ratio) path =
  let ( let* ) = Result.bind in
  let* fd, key = acquire path in
  match load path with
  | Error e ->
      release fd key;
      Error e
  | Ok rep ->
      let auto_compact =
        rep.records > 0
        && rep.bytes > 0
        && float_of_int rep.dead_bytes /. float_of_int rep.bytes >= compact_ratio
      in
      (* [good] is where the next record goes: the end of the intact
         prefix, 0 for a file that still needs its header. *)
      let* fd, key, good, seq =
        if auto_compact then begin
          (* Rewrite in place, keeping only live entries, then re-acquire:
             the rename replaced the inode our lock lives on. The rewrite
             is a whole journal of the kept records numbered from 1, so
             there is nothing to read back. *)
          let kept = compact_entries rep.entries in
          match rewrite_atomic path kept with
          | () ->
              release fd key;
              let* fd, key = acquire path in
              Ok (fd, key, String.length header_line, List.length kept)
          | exception e ->
              release fd key;
              raise e
        end
        else Ok (fd, key, rep.bytes - rep.torn_bytes, rep.last_seq)
      in
      (* Truncate the torn tail so this run's appends extend the good
         prefix instead of gluing new records onto half a record — the
         crash artifact that used to make a resumed-then-resumed journal
         unreadable. *)
      if (not auto_compact) && rep.torn_bytes > 0 then Unix.ftruncate fd good;
      ignore (Unix.lseek fd 0 Unix.SEEK_END);
      let oc = Unix.out_channel_of_descr fd in
      if good = 0 then output_string oc header_line;
      Ok ({ fd; oc; sync; key; seq }, rep)

let open_append ?sync ?compact_ratio path =
  Result.map fst (open_load ?sync ?compact_ratio path)

(* The single sync point every append funnels through: flush always (the
   write-ahead property needs the line out of the userland buffer), fsync
   per policy. This is the one seam the [sync] knob controls. *)
let sync_point t ~settled =
  flush t.oc;
  let want_fsync =
    match t.sync with Never -> false | Per_line -> true | Per_job -> settled
  in
  if want_fsync then begin
    Resilience.Faults.crash_site "journal.pre_fsync";
    let t0 = Obs.Clock.now () in
    Unix.fsync t.fd;
    Obs.Metrics.observe fsync_s (Obs.Clock.now () -. t0)
  end

let append_payload t ~settled payload =
  let t0 = Obs.Clock.now () in
  Resilience.Faults.crash_site "journal.pre_append";
  let seq = t.seq + 1 in
  output_frame t.oc ~seq (payload ());
  t.seq <- seq;
  sync_point t ~settled;
  Resilience.Faults.crash_site "journal.post_append";
  Obs.Metrics.observe append_s (Obs.Clock.now () -. t0)

let append t entry =
  append_payload t
    ~settled:(match entry with Done _ -> true | Started _ -> false)
    (fun () -> entry_to_json entry)

let append_done t ~id ~digest ~reply_json =
  append_payload t ~settled:true (fun () -> done_payload ~id ~digest reply_json)

let close t =
  flush t.oc;
  Hashtbl.remove locked t.key;
  (* close_out closes the underlying descriptor, dropping the lock. *)
  close_out t.oc

let compact path =
  let t0 = Obs.Clock.now () in
  let ( let* ) = Result.bind in
  let* fd, key = acquire path in
  Fun.protect
    ~finally:(fun () -> release fd key)
    (fun () ->
      let* rep = load path in
      let kept = compact_entries rep.entries in
      rewrite_atomic path kept;
      let after_bytes = (Unix.stat path).Unix.st_size in
      Obs.Metrics.observe compact_s (Obs.Clock.now () -. t0);
      Ok
        {
          kept = List.length kept;
          dropped = rep.records - List.length kept;
          before_bytes = rep.bytes;
          after_bytes;
        })
