open Lint_rules

type t = {
  layers : (string * int) list;
  peer_layers : int list;
  exec_layer : int;
  grants : (string * cap list) list;
  random_modules : string list;
  socket_modules : string list;
  stderr_modules : string list;
  unix_dep_ok : string list;
  exec_deps : (string * string list) list;
}

(* The one policy table. This replaces the per-rule path exemptions the
   scanner used to carry ("unix is fine under a directory called
   runner"): layering and capability grants are declared here once, and
   everything — per-file scans, graph propagation, the dune dependency
   check, the DOT export — is checked against it.

   The layer contract (lower may never depend on higher; equal only
   within peer layers):

     0  invariant, lint, cert    axioms: violation reporting, this tool,
                                 JSON + certificates (no dependencies)
     1  obs                      clocks, metrics, traces
     2  automata, graphs, flow,  leaf solver toolkits (peers: may use
        lp, hypergraph,          each other acyclically)
        submodular, graphdb
     3  resilience (lib/core)    the solver facade
     4  runner                   process supervision, journal, protocol
     5  bin/                     executables

   Grants are keyed by unit name and, for the per-directory scan mode,
   by directory basename — lib/core builds library [resilience], so
   both names appear. *)
let default =
  {
    layers =
      [
        ("invariant", 0);
        ("lint", 0);
        ("cert", 0);
        ("obs", 1);
        ("automata", 2);
        ("graphs", 2);
        ("flow", 2);
        ("lp", 2);
        ("hypergraph", 2);
        ("submodular", 2);
        ("graphdb", 2);
        ("resilience", 3);
        ("runner", 4);
      ];
    peer_layers = [ 2 ];
    exec_layer = 5;
    grants =
      [
        ("obs", [ Cunix; Cclock; Cstate ]);
        ("runner", [ Cunix; Cclock; Cfsync; Cstate ]);
        ("resilience", [ Cstate ]);
        ("core", [ Cstate ]);
        ("bin", [ Cunix; Cclock; Cprint; Cexit; Cstate; Cstderr ]);
      ];
    random_modules = [];
    (* Socket endpoints are narrower than the directory-level grants:
       exactly one module — the runner's transport — may create, bind,
       listen on, accept or connect sockets. Everything else (the CLI's
       chaos clients, the tests) goes through Transport's helpers. *)
    socket_modules = [ "runner/transport" ];
    (* Same shape for stderr: Obs.Log emits reason-coded JSON records on
       it, so no other library module may write there — a free-form
       eprintf would interleave with the record stream and dodge the
       level filter, the rate limiter and the flight recorder. *)
    stderr_modules = [ "obs/log" ];
    unix_dep_ok = [ "obs"; "runner"; "bin" ];
    (* Dependency ceilings for executables whose whole point is what they
       do NOT link: the independent certificate checker must never share
       code with the solvers it audits. *)
    exec_deps = [ ("rpq_certcheck", [ "cert" ]) ];
  }

let layer_of t name = List.assoc_opt name t.layers

let grants_of t name = Option.value ~default:[] (List.assoc_opt name t.grants)

let grants_cap t name cap = List.mem cap (grants_of t name)

(* Whether [unit] (library [name], source directory basename [dir]) may
   exercise [cap]. [random_modules] lists "dir/module" slugs for seeded
   chaos modules that wrap their own LCG — none by default; the tree's
   fault and chaos modules draw from explicit streams already. *)
let allowed t ~name ~dir cap =
  grants_cap t name cap || grants_cap t dir cap

let random_module_allowed t slug = List.mem slug t.random_modules
let socket_module_allowed t slug = List.mem slug t.socket_modules
let stderr_module_allowed t slug = List.mem slug t.stderr_modules

let exec_deps_of t name = List.assoc_opt name t.exec_deps
