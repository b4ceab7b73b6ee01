(** Static per-op facts of one scheduling region, filled eagerly into dense
    arrays indexed by op id.

    Built once per [Scheduler.schedule] call and shared by the netlist,
    the binder, the ASAP/ALAP analysis, the pass context and the expert,
    so that no layer recomputes (or caches on its own) what stays constant
    for the call: the op records, resource needs, off-instance delays and
    latencies, region membership, in-edges by port, distance-0 consumers,
    guard predicates, the tagged scheduling dependencies, their
    topological order, fanout-cone sizes and the resource-class keys.

    Why per call and not cached on the {!Hls_ir.Region.t}: nest super-ops
    are retimed ([Dfg.set_kind]) between schedule calls, which moves
    their latency and delay.  The op records are the DFG's own, so the
    fields the relaxation loop flips during a call ([speculated],
    [anchor]) must be — and are — read live from the record; the table
    never copies them. *)

open Hls_ir
open Hls_techlib

type t

type class_key = Opkind.rclass * int list

val create : lib:Library.t -> Region.t -> t
(** Analyze every op of the region's DFG.  Callers without a table at
    hand (the allocator, the baselines, tests) build one on the fly. *)

val cap : t -> int
(** One past the largest op id of the DFG. *)

val op : t -> int -> Dfg.op
(** The DFG's op record.  @raise Invalid_argument for ids it does not hold. *)

val is_member : t -> int -> bool
val members : t -> Dfg.op array
(** Region members, ascending id. *)

val need : t -> int -> Resource.t option
(** Resource type of the op given its operand widths; [None] for wire ops
    and unknown ids. *)

val delay : t -> int -> float
(** Nominal mux-free delay of the op off any instance (0 for wire ops). *)

val latency : t -> int -> int

val ins : t -> int -> Dfg.edge list
(** In-edges, sorted by port, at most one per port; [[]] for unknown ids. *)

val port_src : t -> int -> port:int -> int
(** Source op feeding the port, or -1 when the port is unconnected. *)

val has_port : t -> int -> port:int -> bool
val carried_ins : t -> int -> Dfg.edge list
(** In-edges with distance > 0. *)

val carried_outs : t -> int -> Dfg.edge list
(** Out-edges with distance > 0. *)

val out0 : t -> int -> int array
(** Distance-0 consumers, members or not, in out-edge order. *)

val gpreds : t -> int -> int array
(** Guard predicate ops, in guard order. *)

val n_preds : t -> int -> int
(** Number of scheduling predecessors of a member (0 for non-members). *)

val iter_preds : t -> int -> (int -> bool -> unit) -> unit
(** [iter_preds t id f] calls [f p guard] for each scheduling predecessor
    [p] of a member: its distance-0 data inputs and guard predicates that
    are members, ascending.  [guard] is [true] for a guard predicate,
    which only has to settle by the commit enable, even when it also
    feeds data. *)

val iter_succs : t -> int -> (int -> bool -> unit) -> unit
(** The reverse of {!iter_preds}, ascending: [f c guard] for each member
    [c] that depends on the op, [guard] when [c] reads it only through its
    guard. *)

val topo : t -> int array option
(** Members in scheduling-dependency order, ties by ascending id; [None]
    when the dependencies close a combinational cycle. *)

val class_key : t -> int -> class_key option
(** Resource class with operand widths bucketed to 8/16/32/64 bits. *)

val fanout : t -> int -> int
(** Fanout-cone size of a member: the distinct ops reachable over
    distance-0 edges (0 for non-members). *)

val class_ops : t -> int -> int
(** Members whose need can merge with this member's need. *)

val mergeable_members : t -> Resource.t -> int
(** Members whose need can merge with an arbitrary resource type (an
    instance's, after width merges). *)
