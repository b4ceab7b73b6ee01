(** Timing-aware ASAP/ALAP analysis (Section IV.A): life spans computed
    "by performing approximate timing analysis on the DFG, initially
    ignoring the sharing multiplexers" — the forward pass packs chained
    ops into a step while the accumulated delay fits the clock, the
    backward pass mirrors it from the latency bound.  Guards are
    scheduling dependencies (the enable must settle in the op's step); SCC
    stage windows and user anchors clamp the ranges.

    The sweeps read the static per-op facts — tagged scheduling
    predecessors and successors, their topological order, delays and
    latencies — from an {!Hls_netlist.Op_table}, which the scheduler
    builds once per schedule call and passes to every rerun.  Anchors are
    read from the live op records. *)

open Hls_ir
open Hls_techlib

type range = {
  asap : int;
  alap : int;
  asap_arrival : float;  (** estimated in-step arrival at the ASAP placement *)
}

type t = {
  ranges : range array;  (** by op id; read through {!range} *)
  infeasible : int list;  (** ops whose clamped range is empty at this LI *)
}

val range : t -> int -> range
(** @raise Invalid_argument for unanalyzed ops. *)

val mobility : t -> int -> int

val compute :
  ?table:Hls_netlist.Op_table.t ->
  lib:Library.t ->
  clock_ps:float ->
  ?scc_window:(int -> (int * int) option) ->
  Region.t ->
  t
(** Analyze every member op at the region's current latency interval.
    [table] must come from the same region and library; without one, a
    fresh table is built.
    @raise Invalid_argument when the scheduling dependencies close a
    combinational cycle. *)
