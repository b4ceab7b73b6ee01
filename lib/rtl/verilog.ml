(** Verilog-2001 emitter for a scheduled (and folded) design.

    The generated module is the structural mirror of what the area model
    counts: one FSM whose states are the kernel states (II of them for a
    pipelined loop), stage-valid bits implementing prologue/epilogue and
    stalling, a first-iteration flag driving the loop muxes, per-value
    registers with enables decoded from (state, stage-valid, guard), and
    combinational datapath expressions that inline the same-step chains the
    scheduler approved.

    The emitter aims for readable, synthesizable RTL; its output is
    exercised by golden tests and by a structural self-check
    ({!lint}) that verifies every referenced identifier is declared and
    begin/end pairs balance. *)

open Hls_ir
open Hls_core
module Netlist = Hls_netlist.Netlist

let vname (op : Dfg.op) = Printf.sprintf "v%d_%s" op.Dfg.id (String.map (fun c -> if c = '[' || c = ']' || c = ':' || c = '(' || c = ')' || c = '*' || c = '+' || c = '-' || c = '/' || c = '%' || c = '!' || c = '=' || c = '<' || c = '>' || c = '&' || c = '|' || c = '^' || c = '~' || c = ' ' || c = ',' then '_' else c) op.Dfg.name)

let rname op = vname op ^ "_r"

let binop_v : Opkind.binop -> string = function
  | Opkind.Add -> "+"
  | Opkind.Sub -> "-"
  | Opkind.Mul -> "*"
  | Opkind.Div -> "/"
  | Opkind.Mod -> "%"
  | Opkind.Shl -> "<<<"
  | Opkind.Shr -> ">>>"
  | Opkind.Band -> "&"
  | Opkind.Bor -> "|"
  | Opkind.Bxor -> "^"
  | Opkind.Land -> "&&"
  | Opkind.Lor -> "||"
  | Opkind.Eq -> "=="
  | Opkind.Neq -> "!="
  | Opkind.Lt -> "<"
  | Opkind.Le -> "<="
  | Opkind.Gt -> ">"
  | Opkind.Ge -> ">="

type ctx = {
  buf : Buffer.t;
  dfg : Dfg.t;
  sched : Scheduler.t;
  fold : Pipeline.t;
  elab : Hls_frontend.Elaborate.t;
}

let add ctx fmt = Printf.ksprintf (fun s -> Buffer.add_string ctx.buf s) fmt

(** The emitter reads the schedule through the datapath-netlist view. *)
let net ctx = ctx.sched.Scheduler.s_binding.Binding.net

(** The driving expression of an op's input edge: the producer's register
    when the value crosses a step boundary (or iteration), its wire when
    chained in the same step. *)
let src_ref ctx (consumer_pl : Netlist.placement option) (e : Dfg.edge) =
  let p = Dfg.find ctx.dfg e.Dfg.src in
  if e.Dfg.distance > 0 then rname p
  else
    match (Netlist.placement (net ctx) e.Dfg.src, consumer_pl) with
    | Some ppl, Some cpl when ppl.Netlist.pl_finish = cpl.Netlist.pl_step -> vname p
    | Some _, _ -> rname p
    | None, _ -> rname p (* pre-region value: held in a register *)

let op_expr ctx (op : Dfg.op) =
  let pl = Netlist.placement (net ctx) op.Dfg.id in
  let ins = Dfg.in_edges ctx.dfg op.Dfg.id in
  let arg i = src_ref ctx pl (List.nth ins i) in
  match op.Dfg.kind with
  | Opkind.Bin b -> Printf.sprintf "%s %s %s" (arg 0) (binop_v b) (arg 1)
  | Opkind.Un Opkind.Neg -> Printf.sprintf "-%s" (arg 0)
  | Opkind.Un Opkind.Bnot -> Printf.sprintf "~%s" (arg 0)
  | Opkind.Un Opkind.Lnot -> Printf.sprintf "!%s" (arg 0)
  | Opkind.Const n -> Printf.sprintf "%d'sd%d" op.Dfg.width (abs n) |> fun s -> if n < 0 then "-" ^ s else s
  | Opkind.Read p -> p
  | Opkind.Write _ -> arg 0
  | Opkind.Mux -> Printf.sprintf "%s ? %s : %s" (arg 0) (arg 1) (arg 2)
  | Opkind.Loop_mux -> Printf.sprintf "first_iter ? %s : %s" (arg 0) (arg 1)
  | Opkind.Slice (hi, lo) -> Printf.sprintf "%s[%d:%d]" (arg 0) hi lo
  | Opkind.Zext n -> Printf.sprintf "{{%d{1'b0}}, %s}" n (arg 0)
  | Opkind.Sext n -> Printf.sprintf "{{%d{%s[%d]}}, %s}" n (arg 0) (op.Dfg.width - 1) (arg 0)
  | Opkind.Concat -> Printf.sprintf "{%s, %s}" (arg 0) (arg 1)
  | Opkind.Call c -> Printf.sprintf "%s(%s)" c.Opkind.callee (String.concat ", " (List.mapi (fun i _ -> arg i) ins))

let guard_expr ctx (op : Dfg.op) =
  if Guard.is_always op.Dfg.guard then "1'b1"
  else
    String.concat " && "
      (List.map
         (fun (a : Guard.atom) ->
           let p = Dfg.find ctx.dfg a.Guard.pred in
           let r =
             match Netlist.placement (net ctx) a.Guard.pred with
             | Some ppl -> (
                 match Netlist.placement (net ctx) op.Dfg.id with
                 | Some opl when ppl.Netlist.pl_finish = opl.Netlist.pl_step -> vname p
                 | _ -> rname p)
             | None -> rname p
           in
           if a.Guard.polarity then r else "!" ^ r)
         op.Dfg.guard)

(** Emit the full module. *)
let emit (elab : Hls_frontend.Elaborate.t) (sched : Scheduler.t) (fold : Pipeline.t) : string =
  let cd = elab.Hls_frontend.Elaborate.cdfg in
  let dfg = cd.Cdfg.dfg in
  let ctx = { buf = Buffer.create 4096; dfg; sched; fold; elab } in
  let region = sched.Scheduler.s_region in
  let nl = sched.Scheduler.s_binding.Binding.net in
  let ii = fold.Pipeline.f_ii in
  let stages = fold.Pipeline.f_stages in
  let pipelined = Region.is_pipelined region in
  let design_name = cd.Cdfg.name in
  (* ---- header ---- *)
  add ctx "// Generated by hlspipe from design '%s'\n" design_name;
  add ctx "// LI=%d II=%d stages=%d clock=%.0f ps\n" fold.Pipeline.f_li ii stages
    (Netlist.clock_ps nl);
  add ctx "module %s (\n  input  wire clk,\n  input  wire rst,\n" design_name;
  List.iter (fun (p, w) -> add ctx "  input  wire signed [%d:0] %s,\n" (w - 1) p) cd.Cdfg.in_ports;
  let outs = cd.Cdfg.out_ports in
  List.iteri
    (fun i (p, w) ->
      add ctx "  output reg  signed [%d:0] %s,\n  output reg  %s_valid%s\n" (w - 1) p p
        (if i = List.length outs - 1 then "" else ","))
    outs;
  add ctx ");\n\n";
  (* ---- controller ---- *)
  let state_bits = max 1 (int_of_float (ceil (log (float_of_int (max 2 ii)) /. log 2.0))) in
  add ctx "  // controller: %d kernel state(s), %d stage(s)\n" ii stages;
  add ctx "  reg [%d:0] state;\n" (state_bits - 1);
  add ctx "  reg [%d:0] stage_valid;\n" (stages - 1);
  add ctx "  reg first_iter;\n";
  add ctx "  wire advance = 1'b1%s;\n"
    (match region.Region.stall_cond with
    | Some c -> Printf.sprintf " && %s" (rname (Dfg.find dfg c))
    | None -> "");
  add ctx "  always @(posedge clk) begin\n";
  add ctx "    if (rst) begin\n      state <= 0;\n      stage_valid <= %d'b%s;\n      first_iter <= 1'b1;\n    end\n"
    stages
    (String.make (max 0 (stages - 1)) '0' ^ "1");
  add ctx "    else if (advance) begin\n";
  add ctx "      if (state == %d) begin\n        state <= 0;\n" (ii - 1);
  if pipelined && stages > 1 then
    add ctx "        stage_valid <= {stage_valid[%d:0], 1'b1};\n" (stages - 2)
  else add ctx "        stage_valid <= 1'b1;\n";
  add ctx "        first_iter <= 1'b0;\n      end\n";
  add ctx "      else state <= state + 1;\n";
  add ctx "    end\n  end\n\n";
  (* ---- value wires ---- *)
  add ctx "  // datapath wires (one per scheduled operation)\n";
  let members = Region.member_ops region in
  let placed op = Netlist.placement nl op.Dfg.id <> None in
  List.iter
    (fun op ->
      if placed op then add ctx "  wire signed [%d:0] %s;\n" (op.Dfg.width - 1) (vname op))
    members;
  add ctx "\n  // registered values\n";
  let registered = Netlist.registered_ops nl in
  List.iter
    (fun id ->
      let op = Dfg.find dfg id in
      add ctx "  reg signed [%d:0] %s;\n" (op.Dfg.width - 1) (rname op))
    registered;
  (* pre-region values live in registers loaded before the loop; emitted as
     localparam-initialized registers for brevity *)
  let pre = elab.Hls_frontend.Elaborate.pre_members in
  if pre <> [] then begin
    add ctx "\n  // pre-loop values (loaded during the init state in the full FSM)\n";
    List.iter
      (fun id ->
        let op = Dfg.find dfg id in
        if not (List.mem id registered) then
          add ctx "  reg signed [%d:0] %s;\n" (op.Dfg.width - 1) (rname op))
      pre
  end;
  (* ---- combinational datapath ---- *)
  add ctx "\n  // combinational datapath\n";
  List.iter
    (fun op -> if placed op then add ctx "  assign %s = %s;\n" (vname op) (op_expr ctx op))
    members;
  (* ---- sequential commits ---- *)
  add ctx "\n  // registered commits, decoded by (kernel state, stage validity, guard)\n";
  add ctx "  always @(posedge clk) begin\n    if (advance) begin\n";
  List.iter
    (fun id ->
      let op = Dfg.find dfg id in
      if Region.mem region id then begin
        match Pipeline.kernel_state fold id with
        | Some (st, sg) ->
            let cond =
              Printf.sprintf "state == %d && stage_valid[%d] && (%s)" st sg (guard_expr ctx op)
            in
            add ctx "      if (%s) %s <= %s;\n" cond (rname op) (vname op)
        | None -> ()
      end)
    registered;
  add ctx "    end\n  end\n\n";
  (* ---- output ports ---- *)
  add ctx "  // output port commits\n";
  add ctx "  always @(posedge clk) begin\n";
  List.iter (fun (p, _) -> add ctx "    %s_valid <= 1'b0;\n" p) outs;
  add ctx "    if (advance) begin\n";
  List.iter
    (fun op ->
      match op.Dfg.kind with
      | Opkind.Write p when placed op -> (
          match Pipeline.kernel_state fold op.Dfg.id with
          | Some (st, sg) ->
              add ctx "      if (state == %d && stage_valid[%d] && (%s)) begin %s <= %s; %s_valid <= 1'b1; end\n"
                st sg (guard_expr ctx op) p (vname op) p
          | None -> ())
      | _ -> ())
    members;
  add ctx "    end\n  end\n\nendmodule\n";
  Buffer.contents ctx.buf

(** Structural self-check of emitted Verilog: balanced begin/end and
    module/endmodule pairs, and every generated [vNN_*]/[..._r] identifier
    referenced is also declared.  Returns problems found (empty = clean). *)
let lint (src : string) : string list =
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  let n = String.length src in
  (* does [src] hold [kw] at [k] (from [kw]'s index [j] on) *)
  let rec matches kw k j = j = String.length kw || (src.[k + j] = kw.[j] && matches kw k (j + 1)) in
  let occurs kw lo hi =
    let rec go k = k + String.length kw <= hi && (matches kw k 0 || go (k + 1)) in
    go lo
  in
  let is_token kw lo hi = hi - lo = String.length kw && matches kw lo 0 in
  let is_generated lo hi = hi - lo > 1 && src.[lo] = 'v' && src.[lo + 1] >= '0' && src.[lo + 1] <= '9' in
  (* one pass, line by line: count the block keywords, and split the
     generated identifiers ([v<digit>...]) into declared ones — every
     identifier on a line containing wire/reg/input/output — and uses *)
  let begins = ref 0 and ends = ref 0 and modules = ref 0 and endmodules = ref 0 in
  let declared = Hashtbl.create 128 in
  let uses = ref [] in
  let lo = ref 0 in
  while !lo <= n do
    let hi = Option.value (String.index_from_opt src !lo '\n') ~default:n in
    let decl = occurs "wire" !lo hi || occurs "reg " !lo hi || occurs "input" !lo hi || occurs "output" !lo hi in
    let i = ref !lo in
    while !i < hi do
      if is_ident_char src.[!i] then begin
        let j = ref !i in
        while !j < hi && is_ident_char src.[!j] do
          incr j
        done;
        let a = !i and b = !j in
        if is_generated a b then begin
          let id = String.sub src a (b - a) in
          if decl then Hashtbl.replace declared id () else uses := id :: !uses
        end
        else if is_token "begin" a b then incr begins
        else if is_token "end" a b then incr ends
        else if is_token "module" a b then incr modules
        else if is_token "endmodule" a b then incr endmodules;
        i := b
      end
      else incr i
    done;
    lo := hi + 1
  done;
  let errs = ref [] in
  if !begins <> !ends then errs := [ Printf.sprintf "begin/end imbalance (%d vs %d)" !begins !ends ];
  if !modules <> !endmodules then errs := "module/endmodule imbalance" :: !errs;
  let reported = Hashtbl.create 8 in
  List.iter
    (fun id ->
      if not (Hashtbl.mem declared id || Hashtbl.mem reported id) then begin
        Hashtbl.replace reported id ();
        errs := ("undeclared identifier: " ^ id) :: !errs
      end)
    (List.rev !uses);
  List.rev !errs
