(** Static per-op facts of one scheduling region, filled eagerly into dense
    arrays indexed by op id.

    Everything here is a pure function of the DFG structure, the op kinds
    and widths, the guards, the region membership and the library — none
    of which changes while one [Scheduler.schedule] call runs.  The table
    is built once per call and shared by the netlist, the binder, the
    ASAP/ALAP analysis, the pass context and the expert.  It is not cached
    on the region: nest super-ops are retimed ([Dfg.set_kind]) between
    schedule calls, so their latency and delay must be re-read each call.

    The op records are the DFG's own, so the fields the relaxation loop
    flips during a call — [speculated], and [anchor] — are read live from
    the record, never copied into the table.

    A table outlives its call inside every result that keeps the netlist
    (a DSE memo keeps many), so it stays compact: ops of one resource type
    share one need value, and the scheduling dependencies are packed into
    flat arrays rather than one small array per op. *)

open Hls_ir
open Hls_techlib

type class_key = Opkind.rclass * int list

(** Per-member neighbour lists packed into flat arrays: the neighbours of
    [id] are [ids.(start.(id))] .. [ids.(start.(id + 1) - 1)], ascending,
    each with a guard tag. *)
type adjacency = { start : int array; ids : int array; guard : bool array }

type t = {
  cap : int;  (** one past the largest op id *)
  ops : Dfg.op array;  (** the op records; ids absent from the DFG hold {!hole} *)
  member : Bytes.t;  (** ['\001'] at member ids *)
  members : Dfg.op array;  (** region members, ascending id *)
  need : Resource.t option array;
      (** resource type, one shared value per distinct type; [None] for
          wire ops *)
  delay : float array;  (** mux-free delay off any instance; 0 for wire ops *)
  latency : int array;
  ins : Dfg.edge list array;  (** in-edges, sorted by port, one per port *)
  carried_ins : Dfg.edge list array;  (** in-edges with distance > 0 *)
  carried_outs : Dfg.edge list array;  (** out-edges with distance > 0 *)
  out0 : int array array;  (** distance-0 consumers, members or not *)
  gpreds : int array array;  (** guard predicate ops *)
  preds : adjacency;
      (** scheduling predecessors of a member: distance-0 data inputs and
          guard predicates that are members; tagged when reached through
          the guard (a predicate that also feeds data counts as a guard) *)
  succs : adjacency;
      (** the reverse of [preds]; tagged when the consumer reads the op
          only through its guard (a consumer also fed by data is a data
          one) *)
  topo : int array option;
      (** members in dependency order (ties by ascending id); [None] when
          the scheduling dependencies close a cycle *)
  fanout : int array;  (** fanout-cone size of each member *)
  class_ops : int array;  (** members whose need merges with this member's need *)
  needs : (Resource.t * int) list;  (** distinct member needs, with multiplicity *)
}

(* placeholder in [ops] for ids the DFG does not hold *)
let hole =
  {
    Dfg.id = -1;
    kind = Opkind.Const 0;
    width = 0;
    guard = Guard.always;
    name = "";
    anchor = None;
    speculated = false;
  }

let bucket w = if w <= 8 then 8 else if w <= 16 then 16 else if w <= 32 then 32 else 64

(* members, counted from the distinct-need multiset, whose need merges
   with [rt] *)
let mergeable needs rt =
  List.fold_left (fun acc (m, n) -> if Resource.can_merge m rt then acc + n else acc) 0 needs

(* pack per-op lists of (neighbour, guard tag), each sorted, into one
   adjacency *)
let pack lists =
  let n = Array.length lists in
  let start = Array.make (n + 1) 0 in
  Array.iteri (fun id l -> start.(id + 1) <- start.(id) + List.length l) lists;
  let ids = Array.make start.(n) 0 and guard = Array.make start.(n) false in
  Array.iteri
    (fun id l ->
      List.iteri
        (fun k (p, g) ->
          ids.(start.(id) + k) <- p;
          guard.(start.(id) + k) <- g)
        l)
    lists;
  { start; ids; guard }

let iter_adjacency a id f =
  for k = a.start.(id) to a.start.(id + 1) - 1 do
    f a.ids.(k) a.guard.(k)
  done

(* fanout-cone size of each member: distinct ops reachable over distance-0
   edges (the op itself only through a cycle), as
   {!Hls_ir.Dfg.fanout_cone_size} counts them *)
let fanout_sizes ~cap members out0 =
  let sizes = Array.make cap 0 in
  let seen = Array.make cap (-1) and stack = Array.make (max 1 cap) 0 in
  Array.iter
    (fun (o : Dfg.op) ->
      let root = o.Dfg.id in
      let top = ref 0 and count = ref 0 in
      let visit d =
        if seen.(d) <> root then begin
          seen.(d) <- root;
          incr count;
          stack.(!top) <- d;
          incr top
        end
      in
      Array.iter visit out0.(root);
      while !top > 0 do
        decr top;
        Array.iter visit out0.(stack.(!top))
      done;
      sizes.(root) <- !count)
    members;
  sizes

let create ~(lib : Library.t) (region : Region.t) =
  let dfg = region.Region.dfg in
  let cap = 1 + Dfg.fold_ops dfg (fun op m -> max m op.Dfg.id) (-1) in
  let ops = Array.make cap hole in
  Dfg.iter_ops dfg (fun op -> ops.(op.Dfg.id) <- op);
  let present id = ops.(id) != hole in
  let members =
    Array.of_list
      (List.filter (fun (o : Dfg.op) -> o != hole && Region.mem region o.Dfg.id) (Array.to_list ops))
  in
  let member = Bytes.make cap '\000' in
  Array.iter (fun (o : Dfg.op) -> Bytes.set member o.Dfg.id '\001') members;
  let ins = Array.init cap (fun id -> if present id then Dfg.in_edges dfg id else []) in
  let outs = Array.init cap (fun id -> if present id then Dfg.out_edges dfg id else []) in
  let need =
    let shared = Hashtbl.create 16 in
    Array.map
      (fun op ->
        match if op == hole then None else Resource.of_op dfg op with
        | None -> None
        | Some rt as need -> (
            match Hashtbl.find_opt shared rt with
            | Some need -> need
            | None ->
                Hashtbl.add shared rt need;
                need))
      ops
  in
  let delay = Array.map (function None -> 0.0 | Some rt -> Library.delay lib rt) need in
  let latency = Array.map (fun (op : Dfg.op) -> Library.op_latency lib op.Dfg.kind) ops in
  let carried = Array.map (List.filter (fun e -> e.Dfg.distance > 0)) in
  let out0 =
    Array.map
      (fun l ->
        Array.of_list (List.filter_map (fun e -> if e.Dfg.distance = 0 then Some e.Dfg.dst else None) l))
      outs
  in
  let gpreds = Array.map (fun (op : Dfg.op) -> Array.of_list (Guard.preds op.Dfg.guard)) ops in
  let is_member id = id >= 0 && id < cap && Bytes.get member id = '\001' in
  let sorted_tagged l tag = List.map (fun p -> (p, tag p)) (List.sort_uniq Int.compare l) in
  let preds = Array.make cap [] and guard_deps = Array.make cap [] in
  Array.iter
    (fun (o : Dfg.op) ->
      let id = o.Dfg.id in
      let data =
        List.filter_map
          (fun e -> if e.Dfg.distance = 0 && is_member e.Dfg.src then Some e.Dfg.src else None)
          ins.(id)
      in
      let guards = List.filter is_member (Array.to_list gpreds.(id)) in
      List.iter (fun p -> guard_deps.(p) <- id :: guard_deps.(p)) guards;
      preds.(id) <- sorted_tagged (data @ guards) (fun p -> List.mem p guards))
    members;
  let succs = Array.make cap [] in
  Array.iter
    (fun (o : Dfg.op) ->
      let id = o.Dfg.id in
      let data =
        List.filter_map
          (fun e -> if e.Dfg.distance = 0 && is_member e.Dfg.dst then Some e.Dfg.dst else None)
          outs.(id)
      in
      succs.(id) <- sorted_tagged (data @ guard_deps.(id)) (fun c -> not (List.mem c data)))
    members;
  let needs =
    let counts = Hashtbl.create 16 in
    Array.iter
      (fun (o : Dfg.op) ->
        Option.iter
          (fun rt ->
            Hashtbl.replace counts rt (1 + Option.value (Hashtbl.find_opt counts rt) ~default:0))
          need.(o.Dfg.id))
      members;
    Hashtbl.fold (fun rt n acc -> (rt, n) :: acc) counts []
  in
  let class_ops = Array.make cap 0 in
  Array.iter
    (fun (o : Dfg.op) ->
      Option.iter (fun rt -> class_ops.(o.Dfg.id) <- mergeable needs rt) need.(o.Dfg.id))
    members;
  {
    cap;
    ops;
    member;
    members;
    need;
    delay;
    latency;
    ins;
    carried_ins = carried ins;
    carried_outs = carried outs;
    out0;
    gpreds;
    preds = pack preds;
    succs = pack succs;
    topo =
      Graph_algo.topo_sort
        ~nodes:(Array.to_list (Array.map (fun (o : Dfg.op) -> o.Dfg.id) members))
        ~succs:(fun id -> List.map fst succs.(id))
      |> Option.map Array.of_list;
    fanout = fanout_sizes ~cap members out0;
    class_ops;
    needs;
  }

let cap t = t.cap
let in_range t id = id >= 0 && id < t.cap

let op t id =
  if in_range t id && t.ops.(id) != hole then t.ops.(id)
  else invalid_arg (Printf.sprintf "Op_table.op: no op %d" id)

let is_member t id = in_range t id && Bytes.get t.member id = '\001'
let members t = t.members
let need t id = if in_range t id then t.need.(id) else None
let delay t id = t.delay.(id)
let latency t id = t.latency.(id)
let ins t id = if in_range t id then t.ins.(id) else []

let port_src t id ~port =
  let rec find = function
    | [] -> -1
    | (e : Dfg.edge) :: rest -> if e.Dfg.port = port then e.Dfg.src else find rest
  in
  find (ins t id)

let has_port t id ~port = port_src t id ~port >= 0
let carried_ins t id = t.carried_ins.(id)
let carried_outs t id = t.carried_outs.(id)
let out0 t id = t.out0.(id)
let gpreds t id = t.gpreds.(id)
let n_preds t id = t.preds.start.(id + 1) - t.preds.start.(id)
let iter_preds t id f = iter_adjacency t.preds id f
let iter_succs t id f = iter_adjacency t.succs id f
let topo t = t.topo

let class_key t id =
  Option.map (fun rt -> (rt.Resource.rclass, List.map bucket rt.Resource.in_widths)) (need t id)

let fanout t id = if is_member t id then t.fanout.(id) else 0
let class_ops t id = t.class_ops.(id)
let mergeable_members t rt = mergeable t.needs rt
