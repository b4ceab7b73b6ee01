(** Timing-aware ASAP/ALAP analysis (Section IV.A).

    Unlike classical unit-delay mobility analysis, operation life spans are
    computed "by performing approximate timing analysis on the DFG,
    initially ignoring the sharing multiplexers": the forward pass packs
    chained operations into a control step as long as the accumulated
    combinational delay (plus register setup) fits the clock period, and
    spills to the next step otherwise; the backward pass mirrors it from
    the latency bound.

    Guard predicates are scheduling dependencies: a predicated operation
    commits under a register enable driven by its guard, so the guard op
    must be available no later than the operation's step.

    SCC stage assignments (pipelining) and user anchors clamp the computed
    ranges.  An operation whose clamped range is empty marks the analysis
    infeasible — the signal the relaxation engine uses to add states.

    Both passes run over the dense arrays of an {!Hls_netlist.Op_table}:
    the tagged scheduling predecessors and successors, their topological
    order, each op's off-instance delay and latency.  The scheduler
    prepares that table once per schedule call and reruns this analysis
    (after add-state and SCC moves) at the cost of the two sweeps alone.
    Anchors are read from the live op records. *)

open Hls_ir
open Hls_techlib
module Op_table = Hls_netlist.Op_table

type range = {
  asap : int;
  alap : int;
  asap_arrival : float;  (** estimated in-step arrival at ASAP placement *)
}

type t = {
  ranges : range array;  (** by op id; {!unanalyzed} for non-members *)
  infeasible : int list;  (** ops whose range is empty under current LI *)
}

let unanalyzed = { asap = -1; alap = -1; asap_arrival = 0.0 }

let range t op_id =
  if op_id >= 0 && op_id < Array.length t.ranges && t.ranges.(op_id) != unanalyzed then
    t.ranges.(op_id)
  else invalid_arg (Printf.sprintf "Asap_alap.range: op %d not analyzed" op_id)

let mobility t op_id =
  let r = range t op_id in
  r.alap - r.asap

(** Clamp a range with an anchor and an SCC stage window. *)
let clamp_range ~anchor ~window (a, b) =
  let a, b = match anchor with Some s -> (max a s, min b s) | None -> (a, b) in
  match window with Some (lo, hi) -> (max a lo, min b hi) | None -> (a, b)

(* [Stdlib.max]/[min] specialised to floats (same result: no NaN arises) *)
let fmax (a : float) b = if a >= b then a else b
let fmin (a : float) b = if a <= b then a else b

(** [compute ~lib ~clock_ps ~scc_window region] analyzes all member ops.
    [scc_window op] returns the inclusive step window imposed by a pipeline
    SCC stage assignment, if any.  [table] defaults to a fresh one. *)
let compute ?table ~(lib : Library.t) ~clock_ps ?(scc_window = fun _ -> None) (region : Region.t) :
    t =
  let tbl = match table with Some tbl -> tbl | None -> Op_table.create ~lib region in
  let order =
    match Op_table.topo tbl with
    | Some o -> o
    | None -> invalid_arg "Asap_alap.compute: combinational cycle among member ops"
  in
  let cap = Op_table.cap tbl in
  let li = region.Region.n_steps in
  let ff = lib.Library.ff_clk_q in
  let overhead = lib.Library.ff_setup in
  (* ---- forward (ASAP): op -> step, finish step, out arrival, multi ---- *)
  let f_step = Array.make cap 0 in
  let f_fin = Array.make cap 0 in
  let f_arr = Array.make cap ff in
  let f_multi = Array.make cap false in
  Array.iter
    (fun id ->
      let d = Op_table.delay tbl id in
      let lat = Op_table.latency tbl id in
      (* earliest step considering register crossings of multi-cycle
         preds *)
      let min_step = ref 0 and has_data = ref false in
      Op_table.iter_preds tbl id (fun p guard ->
          min_step := max !min_step (if f_multi.(p) then f_fin.(p) + 1 else f_fin.(p));
          if not guard then has_data := true);
      let arr_at step p = if (not f_multi.(p)) && f_fin.(p) = step then f_arr.(p) else ff in
      let rec settle step =
        let in_arr =
          ref
            (if !has_data then 0.0
             else match (Op_table.op tbl id).Dfg.kind with Opkind.Const _ -> 0.0 | _ -> ff)
        in
        (* the guard gates the commit enable in parallel with the datapath *)
        let guard_arr = ref neg_infinity and guards_registered = ref true in
        Op_table.iter_preds tbl id (fun p guard ->
            let a = arr_at step p in
            if not guard then in_arr := fmax !in_arr a
            else begin
              guard_arr := fmax !guard_arr a;
              if a > ff +. 0.001 then guards_registered := false
            end);
        let in_arr = !in_arr in
        let out = in_arr +. d in
        let commit = fmax out !guard_arr in
        if lat > 1 then (step, out) (* multi-cycle: occupies whole steps *)
        else if commit +. overhead <= clock_ps then (step, out)
        else if in_arr <= ff +. 0.001 && !guards_registered then
          (* already starts from registers; the op alone does not fit — the
             binder will face the same wall, keep the optimistic estimate *)
          (step, out)
        else settle (step + 1)
      in
      let step, out = settle !min_step in
      f_step.(id) <- step;
      f_fin.(id) <- step + lat - 1;
      f_arr.(id) <- out;
      f_multi.(id) <- lat > 1)
    order;
  (* ---- backward (ALAP): op -> alap start step, required output time ---- *)
  let req_last = clock_ps -. overhead in
  let b_step = Array.make cap (li - 1) in
  let b_req = Array.make cap req_last in
  for j = Array.length order - 1 downto 0 do
    let id = order.(j) in
    let d = Op_table.delay tbl id in
    let lat = Op_table.latency tbl id in
    (* an op without consumers may end at the last step *)
    let acc_step = ref max_int and acc_req = ref req_last in
    Op_table.iter_succs tbl id (fun c via_guard ->
        let c_start = b_step.(c) and c_req = b_req.(c) in
        let cand_step, cand_req =
          if Op_table.latency tbl c > 1 || lat > 1 then (c_start - lat, req_last)
          else
            (* deadline for our output: a guard must settle by the
               consumer's commit time, data by the consumer's input time
               (its output deadline minus its delay) *)
            let budget = if via_guard then c_req else c_req -. Op_table.delay tbl c in
            if budget -. d >= ff then (c_start, budget) else (c_start - 1, req_last)
        in
        acc_req := if cand_step < !acc_step then cand_req else fmin !acc_req cand_req;
        acc_step := min !acc_step cand_step);
    b_step.(id) <- (if !acc_step = max_int then li - 1 else !acc_step);
    b_req.(id) <- !acc_req
  done;
  (* ---- combine, clamp, detect infeasibility ---- *)
  let ranges = Array.make cap unanalyzed in
  let infeasible = ref [] in
  Array.iter
    (fun id ->
      let alap = min b_step.(id) (li - 1) in
      let asap', alap' =
        clamp_range ~anchor:(Op_table.op tbl id).Dfg.anchor ~window:(scc_window id)
          (f_step.(id), alap)
      in
      if asap' > alap' then infeasible := id :: !infeasible;
      ranges.(id) <- { asap = asap'; alap = max asap' alap'; asap_arrival = f_arr.(id) })
    order;
  { ranges; infeasible = List.rev !infeasible }
