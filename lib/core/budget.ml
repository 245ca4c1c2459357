type exhaustion = Deadline | Steps | Memory | Fault

let exhaustion_name = function
  | Deadline -> "deadline"
  | Steps -> "steps"
  | Memory -> "memory"
  | Fault -> "injected fault"

exception Exhausted of exhaustion

type t = {
  parent : t option;
  deadline : float option;  (** absolute, [Obs.Clock.now]-based *)
  max_steps : int option;
  memo_cap : int;
  fault_at : int option;
  probe : (int -> unit) option;
  started : float;
  limited : bool;
  mutable steps : int;
  mutable state : exhaustion option;
}

(* 2^20 memo entries: each branch-and-bound entry is a fact-id set, so this
   bounds the table to tens/hundreds of MB on adversarial instances instead
   of the whole address space. *)
let default_memo_cap = 1 lsl 20

let unlimited () =
  {
    parent = None;
    deadline = None;
    max_steps = None;
    memo_cap = default_memo_cap;
    fault_at = None;
    probe = None;
    started = Obs.Clock.now ();
    limited = false;
    steps = 0;
    state = None;
  }

let create ?deadline ?steps ?(memo_cap = default_memo_cap) ?probe () =
  if memo_cap < 0 then invalid_arg "Budget.create: negative memo cap";
  (match deadline with
  | Some d when not (Float.is_finite d && d >= 0.0) ->
      invalid_arg "Budget.create: deadline must be a finite number of seconds >= 0"
  | _ -> ());
  (match steps with
  | Some s when s < 0 -> invalid_arg "Budget.create: negative step budget"
  | _ -> ());
  let now = Obs.Clock.now () in
  {
    parent = None;
    deadline = Option.map (fun d -> now +. d) deadline;
    max_steps = steps;
    memo_cap;
    fault_at = Faults.next_fault_tick ();
    probe;
    started = now;
    limited = true;
    steps = 0;
    state = None;
  }

let exhaust b e =
  b.state <- Some e;
  raise (Exhausted e)

(* Consult the clock only every [1 lsl deadline_shift] ticks: a tick must be
   cheap enough to sit in the innermost solver loops. *)
let deadline_shift = 6
let deadline_mask = (1 lsl deadline_shift) - 1

let ticks = Obs.Metrics.counter "budget.ticks"

let rec tick_chain b =
  (match b.parent with Some p -> tick_chain p | None -> ());
  match b.state with
  | Some e -> raise (Exhausted e)
  | None ->
      b.steps <- b.steps + 1;
      (match b.fault_at with
      | Some n when b.steps >= n -> exhaust b Fault
      | _ -> ());
      (match b.max_steps with
      | Some m when b.steps > m -> exhaust b Steps
      | _ -> ());
      (match b.deadline with
      | Some dl when b.steps land deadline_mask = 0 && Obs.Clock.now () >= dl -> exhaust b Deadline
      | _ -> ());
      (* The probe runs last: when a budget limit and a worker fault (see
         [Faults.worker_mode]) would fire on the same tick, exhaustion wins,
         so a retried job with a tight-enough budget degrades to bounds
         instead of crashing again. *)
      (match b.probe with Some f -> f b.steps | None -> ())

(* One increment per external tick, not per chain link, so the counter
   matches the per-budget step counts and stays deterministic under a
   fixed fault seed. *)
let tick b =
  Obs.Metrics.incr ticks;
  tick_chain b

let fuel b () = tick b

let frac_ok f = Float.is_finite f && f > 0.0 && f <= 1.0

let slice b ~deadline_frac ~steps_frac =
  if not (frac_ok deadline_frac && frac_ok steps_frac) then
    invalid_arg "Budget.slice: fractions must lie in (0, 1]";
  let now = Obs.Clock.now () in
  {
    parent = Some b;
    deadline =
      Option.map (fun dl -> now +. Float.max 0.0 (deadline_frac *. (dl -. now))) b.deadline;
    max_steps =
      Option.map
        (fun m ->
          let remaining = max 0 (m - b.steps) in
          max 1 (int_of_float (steps_frac *. float_of_int remaining)))
        b.max_steps;
    memo_cap = b.memo_cap;
    fault_at = None;
    probe = None;
    started = now;
    limited = b.limited;
    steps = 0;
    state = None;
  }

let memo_admit b size = size < b.memo_cap

let charge_memory b n = if n > b.memo_cap then exhaust b Memory

type spent = { steps : int; elapsed : float }

let spent (b : t) = { steps = b.steps; elapsed = Obs.Clock.now () -. b.started }
let exhaustion b = b.state
let exhausted b = b.state <> None
