(* The evaluation strategies for mapping rules (§4 and §6).

   Each strategy is implemented as a {!Strategy_sig.STRATEGY_BACKEND}
   (Strategy_online, Strategy_replay, Strategy_rewrite, Strategy_fused);
   this module is the thin shim that keeps the historical post-hoc entry
   point [infer] and names the backends for dispatch. *)

type rulebook = Strategy_sig.rulebook

let rules_for = Strategy_sig.rules_for

type post_hoc = [ `Replay | `Rewrite ]

type kind = [ `Online | `Replay | `Rewrite | `Fused ]

(* The backend registry, in registration order.  Everything that
   enumerates backends — the CLI's [--strategy] parser and usage string,
   the agreement test suites — derives from this list, so a new backend
   cannot ship with a stale enumeration (CI pins [names] and fails on
   drift). *)
let all : kind list = [ `Online; `Replay; `Rewrite; `Fused ]

let sequential_hb = Strategy_sig.sequential_hb

let backend_of : kind -> Strategy_sig.backend = function
  | `Online -> (module Strategy_online)
  | `Replay -> (module Strategy_replay)
  | `Rewrite -> (module Strategy_rewrite)
  | `Fused -> (module Strategy_fused)

let kind_to_string : kind -> string = function
  | `Online -> Strategy_online.name
  | `Replay -> Strategy_replay.name
  | `Rewrite -> Strategy_rewrite.name
  | `Fused -> Strategy_fused.name

let names = List.map kind_to_string all

let kind_of_string s =
  List.find_opt (fun k -> String.equal (kind_to_string k) s) all

(* ----- Post-hoc entry point ----- *)

let infer ?(strategy : post_hoc = `Rewrite) ?(inheritance = false)
    ?happened_before ?jobs ~doc ~trace (rb : rulebook) =
  let g = Prov_graph.of_trace trace in
  (match strategy with
   | `Replay -> Strategy_replay.infer ?happened_before ?jobs ~doc ~trace rb g
   | `Rewrite -> Strategy_rewrite.infer ?happened_before ?jobs ~doc ~trace rb g);
  if inheritance then ignore (Inheritance.close doc g);
  g
