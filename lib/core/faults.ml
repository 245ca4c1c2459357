(* Worker plans (Kill_after / Wedge_after) are a pure function of the job
   payload: a hedged duplicate carries the payload verbatim and therefore
   replays the identical fault, which is what makes hedged and unhedged
   serving runs journal-identical (DESIGN.md §16). *)
type plan =
  | Off
  | At_tick of int
  | Seeded of { seed : int; period : int }
  | Kill_after of int
  | Wedge_after of int
  | Crash_at of { site : string; hits : int }
  | Net_at of { site : string; period : int }

exception Crash of string

(* The supervisor-side crash sites wired into lib/runner. The list lives
   here — next to the [crash:<site>:<n>] grammar it parameterizes — so
   the chaos harness and the docs share one source of truth. *)
let crash_sites =
  [
    "journal.pre_append";
    "journal.post_append";
    "journal.pre_fsync";
    "journal.mid_compact";
    "pool.post_dispatch";
  ]

(* The transport-level network fault sites wired into lib/runner's socket
   server. Unlike crash sites these are periodic and non-fatal: every
   [period]-th visit of the armed site makes that one operation fail
   (accept returns an error, a client connection is dropped, a write is
   truncated) while the server keeps running. The closed list keeps a
   typo'd spec from silently never firing. *)
let net_sites = [ "accept_fail"; "client_drop"; "partial_write" ]

let default_period = 1000
let default_seeded = Seeded { seed = 0x5eed; period = default_period }

(* Strict decimal parsing: [int_of_string_opt] accepts hex ("0x5"),
   underscores ("5_0", "5_") and a leading sign, so a spec like "tick:5_"
   would silently parse as a prefix of what the user typed. The fault
   grammar is plain decimals only; anything else is trailing garbage. *)
let dec_opt s =
  let n = String.length s in
  if n = 0 || n > 18 then None
  else begin
    let ok = ref true in
    String.iter (fun c -> if c < '0' || c > '9' then ok := false) s;
    if !ok then int_of_string_opt s else None
  end

let signed_dec_opt s =
  let n = String.length s in
  if n > 1 && s.[0] = '-' then
    Option.map (fun v -> -v) (dec_opt (String.sub s 1 (n - 1)))
  else dec_opt s

let grammar = "off | tick:N | seed:S[:M] | kill:N | wedge:N | crash:SITE:N | net:SITE:N"

(* Site names are dotted lowercase words ([journal.pre_append]); anything
   else in a crash spec is a typo, and a typo'd site would silently never
   fire — reject it up front instead. *)
let site_ok s =
  s <> ""
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '.' || c = '_')
       s

let parse s =
  let positive what n k =
    match dec_opt n with
    | Some n when n >= 1 -> Ok (k n)
    | _ ->
        Error
          (Printf.sprintf
             "%s index %S must be a decimal integer >= 1 (no trailing garbage); grammar: %s" what
             n grammar)
  in
  match String.lowercase_ascii (String.trim s) with
  | "" | "off" | "none" | "0" -> Ok Off
  | t -> begin
      match String.split_on_char ':' t with
      | [ "tick"; n ] -> positive "tick" n (fun n -> At_tick n)
      | [ "kill"; n ] -> positive "kill" n (fun n -> Kill_after n)
      | [ "wedge"; n ] -> positive "wedge" n (fun n -> Wedge_after n)
      | [ "seed"; s ] -> begin
          match signed_dec_opt s with
          | Some seed -> Ok (Seeded { seed; period = default_period })
          | None ->
              Error
                (Printf.sprintf "seed %S must be a decimal integer (no trailing garbage)" s)
        end
      | [ "crash"; site; n ] ->
          if not (site_ok site) then
            Error
              (Printf.sprintf
                 "crash site %S must be a dotted lowercase word (e.g. journal.pre_append); \
                  grammar: %s"
                 site grammar)
          else positive "crash" n (fun hits -> Crash_at { site; hits })
      | [ "net"; site; n ] ->
          if not (List.mem site net_sites) then
            Error
              (Printf.sprintf "net site %S must be one of %s; grammar: %s" site
                 (String.concat ", " net_sites)
                 grammar)
          else positive "net" n (fun period -> Net_at { site; period })
      | [ "seed"; s; m ] -> begin
          match (signed_dec_opt s, dec_opt m) with
          | Some seed, Some period when period >= 1 -> Ok (Seeded { seed; period })
          | _ ->
              Error
                (Printf.sprintf
                   "expected seed:<decimal int>:<decimal period >= 1> (no trailing garbage), \
                    got %S"
                   t)
        end
      | ("tick" | "kill" | "wedge" | "seed" | "crash" | "net") :: _ ->
          Error
            (Printf.sprintf "trailing garbage in fault plan %S (grammar: %s)" t grammar)
      | _ -> Error (Printf.sprintf "unrecognized fault plan %S (grammar: %s)" t grammar)
    end

let to_string = function
  | Off -> "off"
  | At_tick n -> Printf.sprintf "tick:%d" n
  | Seeded { seed; period } -> Printf.sprintf "seed:%d:%d" seed period
  | Kill_after n -> Printf.sprintf "kill:%d" n
  | Wedge_after n -> Printf.sprintf "wedge:%d" n
  | Crash_at { site; hits } -> Printf.sprintf "crash:%s:%d" site hits
  | Net_at { site; period } -> Printf.sprintf "net:%s:%d" site period

type state = {
  mutable active : plan;
  mutable lcg : Invariant.Prng.t;  (** the Seeded plan's stream *)
  mutable from_env : bool;  (** the active plan came from [RPQ_FAULTS] *)
  crash_hits : (string, int) Hashtbl.t;  (** per-site counters for [Crash_at] *)
}

let initial =
  match Sys.getenv_opt "RPQ_FAULTS" with
  | None -> Off
  (* An unrecognized value means someone asked for fault injection: fail
     safe and enable a deterministic default plan rather than silently
     running fault-free. *)
  | Some s -> Result.value ~default:default_seeded (parse s)

let seed_of = function
  | Seeded { seed; _ } -> seed
  | Off | At_tick _ | Kill_after _ | Wedge_after _ | Crash_at _ | Net_at _ -> 0

let state =
  {
    active = initial;
    lcg = Invariant.Prng.make (seed_of initial);
    from_env = Sys.getenv_opt "RPQ_FAULTS" <> None;
    crash_hits = Hashtbl.create 8;
  }

let plan () = state.active

let set_plan p =
  state.active <- p;
  state.lcg <- Invariant.Prng.make (seed_of p);
  state.from_env <- false;
  Hashtbl.reset state.crash_hits

let with_plan p f =
  let saved_plan = state.active and saved_lcg = state.lcg in
  let saved_env = state.from_env in
  let saved_hits = Hashtbl.fold (fun k v acc -> (k, v) :: acc) state.crash_hits [] in
  set_plan p;
  Fun.protect
    ~finally:(fun () ->
      state.active <- saved_plan;
      state.lcg <- saved_lcg;
      state.from_env <- saved_env;
      Hashtbl.reset state.crash_hits;
      List.iter (fun (k, v) -> Hashtbl.replace state.crash_hits k v) saved_hits)
    f

(* Under an env-installed plan a crash site really terminates the process
   (the chaos harness expects [_exit 70], mimicking an abrupt supervisor
   death); lib/core cannot reference Unix (see the rpq_lint unix rule), so
   the runner installs the exit behavior via this hook at link time. If the
   hook returns — or none is installed — we raise instead, which is the
   deterministic behavior programmatic [with_plan] tests rely on. *)
let crash_exit : (string -> unit) ref = ref (fun _ -> ())
let set_crash_exit f = crash_exit := f

let crash_site here =
  match state.active with
  | Crash_at { site; hits } when site = here ->
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt state.crash_hits here) in
      Hashtbl.replace state.crash_hits here n;
      if n = hits then begin
        if state.from_env then !crash_exit here;
        raise (Crash here)
      end
  | _ -> ()

(* Periodic, non-fatal: every [period]-th visit of the armed site fires.
   Counters share the crash_hits table (namespaced with a "net." prefix so
   a crash site and a net site can never alias), which keeps with_plan's
   save/restore covering both families. *)
let net_site here =
  match state.active with
  | Net_at { site; period } when site = here ->
      let key = "net." ^ here in
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt state.crash_hits key) in
      Hashtbl.replace state.crash_hits key n;
      n mod period = 0
  | _ -> false

let next_fault_tick () =
  match state.active with
  | Off | Kill_after _ | Wedge_after _ | Crash_at _ | Net_at _ -> None
  | At_tick n -> Some n
  | Seeded { period; _ } ->
      Some (1 + Invariant.Prng.int state.lcg period)

let worker_mode () =
  match state.active with
  | Kill_after n -> Some (`Kill n)
  | Wedge_after n -> Some (`Wedge n)
  | Off | At_tick _ | Seeded _ | Crash_at _ | Net_at _ -> None
