(** Scheduling priority (Section IV.B): mobility from the timing-aware
    ASAP/ALAP intervals (Force-Directed-style), operation complexity
    (complex first), and fanout-cone size. *)

open Hls_ir

type weights = { w_mobility : float; w_complexity : float; w_fanout : float }

val default_weights : weights

val score : ?weights:weights -> fanout:(int -> int) -> Asap_alap.t -> Dfg.op -> float
(** Higher = scheduled earlier. *)

val rank : ?weights:weights -> fanout:(int -> int) -> Asap_alap.t -> Dfg.op list -> Dfg.op list
(** Sort, highest priority first, ascending-id tie-break. *)
