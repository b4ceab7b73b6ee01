(** Pass-invariant scheduling context.  See the interface for what is
    cached and why it is safe: everything here except the priority scores
    is a pure function of the region's DFG, and the scores are tied to the
    physical identity of the interval analysis they were computed from. *)

open Hls_ir
module Op_table = Hls_netlist.Op_table

type t = {
  ctx_table : Op_table.t;
  ctx_scores : float array;
  mutable ctx_scores_aa : Asap_alap.t option;
}

let create table =
  {
    ctx_table = table;
    ctx_scores = Array.make (Op_table.cap table) 0.0;
    ctx_scores_aa = None;
  }

let refresh_scores ?(boosts = []) t ~weights ~aa =
  match t.ctx_scores_aa with
  | Some prev when prev == aa -> ()
  | _ ->
      Array.iter
        (fun o ->
          t.ctx_scores.(o.Dfg.id) <- Priority.score ~weights ~fanout:(Op_table.fanout t.ctx_table) aa o)
        (Op_table.members t.ctx_table);
      (* feedback priority boosts: additive deltas on top of the base
         score.  Constant for the lifetime of a schedule call, so the
         aa-identity memo above stays sound. *)
      List.iter
        (fun (id, delta) ->
          if Op_table.is_member t.ctx_table id then
            t.ctx_scores.(id) <- t.ctx_scores.(id) +. delta)
        boosts;
      t.ctx_scores_aa <- Some aa
