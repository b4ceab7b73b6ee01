(** Scheduling priority function (Section IV.B, Fig. 7).

    "The priority function takes into account the mobility of the
    operations defined by timing-aware ASAP/ALAP intervals (similar to
    Force-Directed Scheduling), the complexity of operations (more complex
    ones are scheduled first), the size of the fanout cone of an operation,
    etc." *)

open Hls_ir

type weights = { w_mobility : float; w_complexity : float; w_fanout : float }

let default_weights = { w_mobility = 100.0; w_complexity = 10.0; w_fanout = 0.5 }

(** Higher score = scheduled earlier.  Mobility 0 (a single feasible step)
    dominates; among equally mobile ops, structural complexity, then fanout
    cone size, break ties; op id is the final deterministic tie-break. *)
let score ?(weights = default_weights) ~fanout (aa : Asap_alap.t) (op : Dfg.op) =
  let mobility = float_of_int (Asap_alap.mobility aa op.Dfg.id) in
  let complexity = Opkind.complexity op.Dfg.kind in
  (weights.w_mobility /. (1.0 +. mobility))
  +. (weights.w_complexity *. complexity)
  +. (weights.w_fanout *. float_of_int (fanout op.Dfg.id))

(** Sort candidate ops, highest priority first. *)
let rank ?weights ~fanout (aa : Asap_alap.t) ops =
  ops
  |> List.map (fun op -> (score ?weights ~fanout aa op, op))
  |> List.stable_sort (fun (sa, oa) (sb, ob) ->
         match compare sb sa with 0 -> compare oa.Dfg.id ob.Dfg.id | c -> c)
  |> List.map snd
