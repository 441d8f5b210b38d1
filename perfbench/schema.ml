(* The result line the benchmark prints last: whether every check passed,
   operations attempted and failed, and the metrics by name. *)

module J = Weblab_server.Json

type metric = { value : float; unit : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * metric) list;  (** in report order *)
}

let to_json r =
  J.Obj
    [ ("correct", J.Bool r.correct); ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("metrics",
       J.Obj
         (List.map
            (fun (name, m) ->
              (name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit) ]))
            r.metrics)) ]

let of_json v =
  let ( let* ) = Option.bind in
  let* correct = J.bool_member "correct" v in
  let* attempted = J.int_member "attempted" v in
  let* failed = J.int_member "failed" v in
  let* ms =
    match J.member "metrics" v with Some (J.Obj fs) -> Some fs | _ -> None
  in
  let metric (name, m) =
    let* value = J.float_member "value" m in
    let* unit = J.str_member "unit" m in
    Some (name, { value; unit })
  in
  let metrics = List.filter_map metric ms in
  if List.length metrics <> List.length ms then None
  else Some { correct; attempted; failed; metrics }

let to_string r = J.to_string (to_json r)

let of_string s = Option.bind (Result.to_option (J.parse_opt s)) of_json
