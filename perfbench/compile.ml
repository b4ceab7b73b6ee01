(** Inputs of the offline workloads and one compile of an input: design
    construction (or parsing), [Flow.run] with verification on, then
    Verilog emission and lint of the result. *)

module Flow = Hls_flow.Flow
module TFlow = Perfbench_traced.Flow
module Span = Perfbench_probe.Span

(** The workload seed is reduced to one of [variants] input variants, so
    that the expected-outcome table covers every seed. *)
let variants = 8

let variant seed = ((seed mod variants) + variants) mod variants

let stimulus_seed v = 1 + v

(** The seed's clock variant.  Every round of an offline workload also
    compiles [matvec4], sequential, at this clock (its area and LI change
    across the eight clocks), so the QoR geometric means follow the seed
    while a round's work moves by well under 1 ms.
    Moving the clocks of the other inputs instead would move their
    schedules, and with them compile time, far more: a 12 ps shift nearly
    doubled the compile of a 310-op synthetic design. *)
let probe_clock_ps v = 900.0 +. (100.0 *. float_of_int v)

type source = Builtin of string | Bhv of string * string  (** name, text *)

type config = { ii : int option; clock_ps : float; seed : int }
type input = { key : string; source : source; config : config }

let ii_label = function None -> "seq" | Some i -> Printf.sprintf "ii=%d" i

let config ~v ?ii clock_ps = { ii; clock_ps; seed = stimulus_seed v }

let probe_input v =
  {
    key = Printf.sprintf "matvec4/seq@%.0fps" (probe_clock_ps v);
    source = Builtin "matvec4";
    config = config ~v (probe_clock_ps v);
  }

(** The corpus designs, pinned so that a design added to the repository
    does not change the benchmark's inputs: every built-in design but
    [idct8x8], and every [examples/*.bhv] file. *)
let builtin_names =
  [ "example1"; "fir8"; "fir16"; "fft"; "idct"; "sobel"; "dotprod"; "agc"; "matvec4"; "matvec8"; "gemm4" ]

let bhv_names = [ "matmul"; "satacc"; "stencil2d" ]

(** The example sources, read from the checkout; parsed on every compile. *)
let bhv_sources () =
  List.map
    (fun n ->
      let ic = open_in_bin (Filename.concat "examples" (n ^ ".bhv")) in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (n, text))
    bhv_names

(** [corpus]: the corpus designs sequential and at II=1 and II=2, Tclk
    1600 ps, plus the seed probe. *)
let corpus_inputs v =
  let designs =
    List.map (fun n -> (n, Builtin n)) builtin_names
    @ List.map (fun (n, text) -> (n, Bhv (n, text))) (bhv_sources ())
  in
  List.concat_map
    (fun (n, source) ->
      List.map
        (fun ii -> { key = n ^ "/" ^ ii_label ii; source; config = config ~v ?ii 1600.0 })
        [ None; Some 1; Some 2 ])
    designs
  @ [ probe_input v ]

let load_design = function
  | Builtin n -> (List.assoc n Hls_server.Design_db.builtins) ()
  | Bhv (_, text) -> Span.with_ "frontend.parse" (fun () -> Hls_frontend.Parser.parse_string text)

let emitter elab sched fold () =
  Span.with_ "rtl.emit" (fun () -> Hls_rtl.Verilog.emit elab sched fold)

let view (f : Flow.t) =
  {
    Outcome.tier = Flow.tier_to_string f.Flow.f_tier;
    qor_v =
      {
        Outcome.area = f.Flow.f_area.Hls_rtl.Stats.a_total;
        delay_ps = f.Flow.f_delay_ps;
        li = f.Flow.f_sched.Hls_core.Scheduler.s_li;
        power_mw = f.Flow.f_power_mw;
      };
    verdict = f.Flow.f_equiv;
    stats_v = f.Flow.f_stats;
    emit = emitter f.Flow.f_elab f.Flow.f_sched f.Flow.f_fold;
  }

let traced_view (f : TFlow.t) =
  {
    Outcome.tier = TFlow.tier_to_string f.TFlow.f_tier;
    qor_v =
      {
        Outcome.area = f.TFlow.f_area.Hls_rtl.Stats.a_total;
        delay_ps = f.TFlow.f_delay_ps;
        li = f.TFlow.f_sched.Hls_core.Scheduler.s_li;
        power_mw = f.TFlow.f_power_mw;
      };
    verdict = f.TFlow.f_equiv;
    stats_v = f.TFlow.f_stats;
    emit = emitter f.TFlow.f_elab f.TFlow.f_sched f.TFlow.f_fold;
  }

(** One compile.  [traced] runs the span-instrumented build of
    [Flow.run]; otherwise the shipped one. *)
let compile ~traced (inp : input) =
  let c = inp.config in
  let r =
    match load_design inp.source with
    | exception Hls_frontend.Parser.Error { message; _ } ->
        Hls_diag.Diag.error ~phase:Hls_diag.Diag.Frontend ~code:"parse" "%s" message
    | design ->
        if traced then
          Result.map traced_view
            (Span.with_ "flow.run" (fun () ->
                 TFlow.run
                   ~options:{ TFlow.default_options with ii = c.ii; clock_ps = c.clock_ps; seed = c.seed }
                   design))
        else
          Result.map view
            (Flow.run
               ~options:{ Flow.default_options with ii = c.ii; clock_ps = c.clock_ps; seed = c.seed }
               design)
  in
  Outcome.of_view ~key:inp.key ~lint:true r
