include Perfbench_probe.Real.Rtl
module Span = Perfbench_probe.Span

module Stats = struct
  include Perfbench_probe.Real.Rtl.Stats

  let area ?synth ?io_widths s =
    Span.with_ "rtl.area" (fun () -> Perfbench_probe.Real.Rtl.Stats.area ?synth ?io_widths s)

  let power ?activity ?iters s b ~clock_ps =
    Span.with_ "rtl.power" (fun () ->
        Perfbench_probe.Real.Rtl.Stats.power ?activity ?iters s b ~clock_ps)
end
