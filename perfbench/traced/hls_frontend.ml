include Perfbench_probe.Real.Frontend
module Span = Perfbench_probe.Span

module Elaborate = struct
  include Perfbench_probe.Real.Frontend.Elaborate

  let design ?timed ?nest ?carried_dim d =
    Span.with_ "frontend.elaborate" (fun () ->
        let e = Perfbench_probe.Real.Frontend.Elaborate.design ?timed ?nest ?carried_dim d in
        Span.count "frontend.ops" (Hls_ir.Dfg.size e.cdfg.Hls_ir.Cdfg.dfg);
        e)

  let main_region ?ii ?min_latency ?max_latency e =
    Span.with_ "frontend.main_region" (fun () ->
        Perfbench_probe.Real.Frontend.Elaborate.main_region ?ii ?min_latency ?max_latency e)
end
