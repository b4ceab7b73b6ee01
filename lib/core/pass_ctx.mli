(** Pass-invariant scheduling context, computed once per schedule call and
    reused across every relaxation pass.

    A relaxation pass re-runs the whole SCHEDULE_PASS after each expert
    action (Fig. 7), but most of what the pass consults never changes
    between passes: the member list, the scheduling-predecessor and
    dependent graphs, the fanout-cone sizes and the resource class keys
    come from the call's {!Hls_netlist.Op_table}.
    Priority scores depend additionally on the ASAP/ALAP intervals, which
    only move when the latency interval or an SCC window moves (add-state
    / move-SCC actions) — so they are cached too and refreshed only when
    the interval analysis itself is refreshed ({!refresh_scores} keys on
    the physical identity of the [aa] value). *)

type t = {
  ctx_table : Hls_netlist.Op_table.t;
      (** members, scheduling preds/succs, fanout cones, class keys *)
  ctx_scores : float array;  (** by op id: priority scores under the last aa *)
  mutable ctx_scores_aa : Asap_alap.t option;
      (** the aa value [ctx_scores] was computed from (physical identity) *)
}

val create : Hls_netlist.Op_table.t -> t
(** Build every aa-independent table.  Scores stay unset until the first
    {!refresh_scores}. *)

val refresh_scores :
  ?boosts:(int * float) list -> t -> weights:Priority.weights -> aa:Asap_alap.t -> unit
(** Recompute the members' priority scores from [aa]; a no-op when [aa] is
    physically the value the scores already reflect.  [boosts] are
    additive feedback deltas layered on top of the base score — they must
    be constant across every call that shares this context (they are
    per-schedule hints), or the aa-identity memo would serve stale sums. *)
