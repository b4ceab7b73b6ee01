(** Simulator of a scheduled (and folded) design.

    Executes the elaborated DFG exactly as the generated hardware would:
    pre-region operations once, then the main-loop region iteration by
    iteration with loop-carried values flowing across distance-[d] edges,
    guards gating port-write commits, and the folded pipeline's timing
    reconstructed analytically (iteration [i] of a pipeline with initiation
    interval II issues at cycle [i * II]; an operation scheduled on step [s]
    of iteration [i] executes at cycle [i * II + s]).

    Data-dependent loop exits behave speculatively, as in the generated
    controller: when iteration [i] computes a false continue condition, the
    younger iterations already in flight are squashed — they consume cycles
    but their port writes are suppressed.  The simulator reports both the
    committed outputs (for equivalence against {!Behav}) and the cycle
    counts (for throughput and power accounting).

    {b Dense plan.}  [run] first resolves the DFG into a plan, once per
    call: the pre-region and the region members as arrays of steps in
    topological order (over distance-0 edges), each step holding its
    op's inputs in port order, already classified as
    - [Cur]: a region member of the same iteration (earlier in the order);
    - [Pre]: a pre-region op (for the region: any non-member pre-region
      op reached by a distance-0 edge);
    - [Carried d]: a region member [d >= 1] iterations back;
    - [Zero]: anything else — an op that is never evaluated, or a
      loop-carried edge from outside the region — which reads 0;
    plus the Concat low-operand widths, the input ports' sample arrays
    and the write ops with their step and their guard sources.  The
    iterations then run over a ring of [max_distance + 1] value arrays
    indexed by op id: iteration [i] writes slot [i mod depth] and a
    distance-[d] input reads slot [(i - d) mod depth].  Every member is
    evaluated in every iteration, so the slot of iteration [i - d] holds
    exactly that iteration's values for all [d <= max_distance], and the
    current slot is never read for a carried input; reads of iterations
    before the first ([i < d]) give 0.  This is the value model of the
    per-iteration tables it replaced, field for field.

    Execution counts per operation are collected for the activity-based
    power model. *)

open Hls_ir
open Hls_core
open Hls_frontend

type output_event = { o_port : string; o_iter : int; o_cycle : int; o_value : int }

type result = {
  r_outputs : output_event list;  (** committed writes, iteration-major, topological within *)
  r_iters : int;  (** committed main-loop iterations *)
  r_cycles : int;  (** total cycles from first issue to pipeline drain *)
  r_issued : int;  (** iterations issued, including squashed ones *)
  r_exec_counts : (int, int) Hashtbl.t;  (** op -> number of executions *)
}

(* ------------------------------------------------------------------ *)
(* Plan *)

(** Where an operand's value comes from, resolved once per run. *)
type src =
  | Cur of int  (** op id, this iteration *)
  | Pre of int  (** op id, pre-region value *)
  | Carried of int * int  (** op id, distance [d >= 1] *)
  | Zero

type eval =
  | E_bin of Opkind.binop * src * src
  | E_unary of Opkind.t * src  (** [Un], [Slice], [Zext], [Sext] *)
  | E_mux of src * src * src
  | E_const of int
  | E_read of int array  (** the port's samples, by iteration *)
  | E_read_missing of (int -> int)  (** a port without samples: {!Stimulus.value} reports it *)
  | E_loop_mux of src * src  (** initial value, carried value *)
  | E_copy of src  (** [Write]: the committed value *)
  | E_concat of src * src * int  (** high, low, low operand's width *)
  | E_call of string * src list

type step = { id : int; width : int; eval : eval }

type write = {
  w_id : int;
  w_port : string;
  w_step : int;  (** control step of the commit *)
  w_guard : (src * bool) list;  (** predicate source, polarity *)
}

(** Per-iteration state the steps read: the ring of value arrays, the
    current slot in it and the pre-region values. *)
type frame = {
  ring : int array array;
  pre : int array;
  mutable cur : int array;
  mutable slot : int;
  mutable iter : int;
}

let value fr = function
  | Cur id -> fr.cur.(id)
  | Pre id -> fr.pre.(id)
  | Carried (id, d) ->
      if fr.iter < d then 0
      else
        let s = fr.slot - d in
        fr.ring.(if s < 0 then s + Array.length fr.ring else s).(id)
  | Zero -> 0

let exec ~funcs fr (st : step) =
  let v =
    match st.eval with
    | E_bin (op, a, b) -> Opkind.eval_bin op (value fr a) (value fr b)
    | E_unary (k, a) -> Opkind.eval_unary k (value fr a)
    | E_mux (s, a, b) -> if value fr s <> 0 then value fr a else value fr b
    | E_const n -> n
    | E_read samples -> if fr.iter < Array.length samples then samples.(fr.iter) else 0
    | E_read_missing read -> read fr.iter
    | E_loop_mux (init, carried) -> if fr.iter = 0 then value fr init else value fr carried
    | E_copy a -> value fr a
    | E_concat (a, b, wb) -> (value fr a lsl wb) lor (value fr b land ((1 lsl wb) - 1))
    | E_call (callee, args) -> funcs callee (List.map (value fr) args)
  in
  fr.cur.(st.id) <- Width.truncate ~width:st.width v

let rec guard_holds fr = function
  | [] -> true
  | (s, polarity) :: rest -> value fr s <> 0 = polarity && guard_holds fr rest

(** Topological order of a member list over distance-0 edges. *)
let topo_members dfg members =
  let member_set = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace member_set m ()) members;
  let succs id =
    List.filter_map
      (fun e ->
        if e.Dfg.distance = 0 && Hashtbl.mem member_set e.Dfg.dst then Some e.Dfg.dst else None)
      (Dfg.out_edges dfg id)
  in
  match Graph_algo.topo_sort ~nodes:members ~succs with
  | Some o -> o
  | None -> invalid_arg "Schedule_sim: combinational cycle in region"

(** Compile one op into a step; [classify] resolves an input edge. *)
let compile_step dfg stim ~classify (op : Dfg.op) =
  let ins = Array.of_list (Dfg.in_edges dfg op.Dfg.id) in
  let arg i =
    if i >= Array.length ins then
      invalid_arg
        (Printf.sprintf "Schedule_sim: op %d (%s) has no input %d" op.Dfg.id
           (Opkind.to_string op.Dfg.kind) i)
    else classify ins.(i)
  in
  let eval =
    match op.Dfg.kind with
    | Opkind.Read p -> (
        match List.assoc_opt p stim.Stimulus.samples with
        | Some a -> E_read a
        | None -> E_read_missing (fun iter -> Stimulus.value stim ~port:p ~iter))
    | Opkind.Const n -> E_const n
    | Opkind.Loop_mux -> E_loop_mux (arg 0, arg 1)
    | Opkind.Write _ -> E_copy (arg 0)
    | Opkind.Call c -> E_call (c.Opkind.callee, List.map classify (Array.to_list ins))
    | Opkind.Concat ->
        let hi = arg 0 and lo = arg 1 in
        E_concat (hi, lo, (Dfg.find dfg ins.(1).Dfg.src).Dfg.width)
    | Opkind.Bin b -> E_bin (b, arg 0, arg 1)
    | (Opkind.Un _ | Opkind.Slice _ | Opkind.Zext _ | Opkind.Sext _) as k -> E_unary (k, arg 0)
    | Opkind.Mux -> E_mux (arg 0, arg 1, arg 2)
  in
  { id = op.Dfg.id; width = op.Dfg.width; eval }

(** Run the simulation.  [max_iters] caps infinite loops; data-dependent
    exits stop earlier. *)
let run ?(funcs = Behav.default_fun) ?max_iters (elab : Elaborate.t) (sched : Scheduler.t)
    (stim : Stimulus.t) : result =
  let dfg = elab.Elaborate.cdfg.Cdfg.dfg in
  let n_ids = Dfg.fold_ops dfg (fun op m -> max m op.Dfg.id) (-1) + 1 in
  let is_pre = Array.make n_ids false and is_member = Array.make n_ids false in
  let mark set id = if id >= 0 && id < n_ids then set.(id) <- true in
  let marked set id = id >= 0 && id < n_ids && set.(id) in
  List.iter (mark is_pre) elab.Elaborate.pre_members;
  let region = sched.Scheduler.s_region in
  let ii = Region.ii region in
  let li = sched.Scheduler.s_li in
  let members = List.map (fun o -> o.Dfg.id) (Region.member_ops region) in
  List.iter (mark is_member) members;
  (* --- plan --- *)
  let plan ~classify order =
    Array.of_list (List.map (fun id -> compile_step dfg stim ~classify (Dfg.find dfg id)) order)
  in
  (* the pre-region reads earlier pre-region values only; a source not
     evaluated yet (or never) reads 0, which the zeroed array gives *)
  let pre_steps =
    plan
      ~classify:(fun e -> if marked is_pre e.Dfg.src then Pre e.Dfg.src else Zero)
      (topo_members dfg elab.Elaborate.pre_members)
  in
  let resolve0 id = if marked is_member id then Cur id else if marked is_pre id then Pre id else Zero in
  let order = topo_members dfg members in
  let steps =
    plan
      ~classify:(fun e ->
        if e.Dfg.distance = 0 then resolve0 e.Dfg.src
        else if marked is_member e.Dfg.src then Carried (e.Dfg.src, e.Dfg.distance)
        else Zero)
      order
  in
  let writes =
    Array.of_list
      (List.filter_map
         (fun id ->
           let op = Dfg.find dfg id in
           match op.Dfg.kind with
           | Opkind.Write p ->
               Some
                 {
                   w_id = id;
                   w_port = p;
                   w_step =
                     (match Scheduler.placement sched id with
                     | Some pl -> pl.Binding.pl_step
                     | None -> li - 1);
                   w_guard =
                     List.map (fun (a : Guard.atom) -> (resolve0 a.Guard.pred, a.Guard.polarity)) op.Dfg.guard;
                 }
           | _ -> None)
         order)
  in
  let exit_src =
    match region.Region.continue_cond with
    | Some c when marked is_member c -> Some (Cur c)
    | Some _ -> Some Zero
    | None -> None
  in
  let max_distance =
    List.fold_left
      (fun acc id -> List.fold_left (fun acc e -> max acc e.Dfg.distance) acc (Dfg.in_edges dfg id))
      1 members
  in
  (* --- pre-region: evaluate once (iteration index 0 for port reads) --- *)
  let pre = Array.make n_ids 0 in
  let fr = { ring = Array.init (max_distance + 1) (fun _ -> Array.make n_ids 0); pre; cur = pre; slot = 0; iter = 0 } in
  let exec_all steps =
    for k = 0 to Array.length steps - 1 do
      exec ~funcs fr steps.(k)
    done
  in
  exec_all pre_steps;
  (* --- main loop --- *)
  let n_iters = min (Option.value max_iters ~default:stim.Stimulus.n_iters) stim.Stimulus.n_iters in
  let outputs = ref [] in
  let committed = ref 0 in
  let exited = ref false in
  while (not !exited) && !committed < n_iters do
    let i = !committed in
    fr.iter <- i;
    fr.slot <- i mod Array.length fr.ring;
    fr.cur <- fr.ring.(fr.slot);
    exec_all steps;
    (* committed writes of this iteration *)
    for k = 0 to Array.length writes - 1 do
      let w = writes.(k) in
      if guard_holds fr w.w_guard then
        outputs :=
          { o_port = w.w_port; o_iter = i; o_cycle = (i * ii) + w.w_step; o_value = fr.cur.(w.w_id) }
          :: !outputs
    done;
    (match exit_src with Some c -> exited := value fr c = 0 | None -> ());
    incr committed
  done;
  (* --- pipeline squash accounting: iterations in flight past the exit --- *)
  let squashed =
    if !exited && Region.is_pipelined region then
      (* exit detected at the step where the continue condition is
         scheduled; younger iterations already issued are squashed *)
      let cond_step =
        match region.Region.continue_cond with
        | Some c -> (
            match Scheduler.placement sched c with
            | Some pl -> pl.Binding.pl_finish
            | None -> li - 1)
        | None -> li - 1
      in
      min (cond_step / ii) (n_iters - !committed)
    else 0
  in
  let cycles = if !committed = 0 then 0 else ((!committed - 1 + squashed) * ii) + li in
  (* every pre-region op ran once, every member once per committed iteration *)
  let counts = Array.make n_ids 0 in
  Array.iter (fun st -> counts.(st.id) <- counts.(st.id) + 1) pre_steps;
  Array.iter (fun st -> counts.(st.id) <- counts.(st.id) + !committed) steps;
  let exec_counts = Hashtbl.create 64 in
  Array.iteri (fun id n -> if n > 0 then Hashtbl.replace exec_counts id n) counts;
  {
    r_outputs = List.rev !outputs;
    r_iters = !committed;
    r_cycles = cycles;
    r_issued = !committed + squashed;
    r_exec_counts = exec_counts;
  }

let port_values (r : result) port =
  List.filter_map (fun o -> if o.o_port = port then Some o.o_value else None) r.r_outputs
