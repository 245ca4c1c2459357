type level = Off | Cheap | Paranoid

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" | "none" | "0" -> Some Off
  | "cheap" | "1" -> Some Cheap
  | "paranoid" | "full" | "2" -> Some Paranoid
  | _ -> None

let level_name = function Off -> "off" | Cheap -> "cheap" | Paranoid -> "paranoid"

let initial =
  match Sys.getenv_opt "RPQ_CHECK" with
  | None -> Off
  (* An unrecognized value means someone asked for checking: fail safe and
     enable the cheap tier rather than silently running unchecked. *)
  | Some s -> Option.value ~default:Cheap (of_string s)

let current = ref initial
let level () = !current
let set_level l = current := l

let with_level l f =
  let saved = !current in
  current := l;
  Fun.protect ~finally:(fun () -> current := saved) f

let failed what vs =
  Invariant.internal_error "%s:\n%s" what (Invariant.violations_to_markdown vs)

let cheap_runs = Obs.Metrics.counter "check.cheap"
let paranoid_runs = Obs.Metrics.counter "check.paranoid"

let cheap what f =
  if !current <> Off then begin
    Obs.Metrics.incr cheap_runs;
    match f () with Ok () -> () | Error vs -> failed what vs
  end

let paranoid what f =
  if !current = Paranoid then begin
    Obs.Metrics.incr paranoid_runs;
    match f () with Ok () -> () | Error vs -> failed what vs
  end
