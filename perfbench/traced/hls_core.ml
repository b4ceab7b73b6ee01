include Perfbench_probe.Real.Core
module Span = Perfbench_probe.Span

module Scheduler = struct
  include Perfbench_probe.Real.Core.Scheduler

  let schedule ?opts ?trace ~lib ~clock_ps region =
    Span.with_ "sched.schedule" ~alloc:true (fun () ->
        Perfbench_probe.Real.Core.Scheduler.schedule ?opts ?trace ~lib ~clock_ps region)

  let stats s = Span.with_ "sched.stats" (fun () -> Perfbench_probe.Real.Core.Scheduler.stats s)
end

module Pipeline = struct
  include Perfbench_probe.Real.Core.Pipeline

  let fold s = Span.with_ "fold.fold" (fun () -> Perfbench_probe.Real.Core.Pipeline.fold s)

  let validate s f =
    Span.with_ "fold.validate" (fun () -> Perfbench_probe.Real.Core.Pipeline.validate s f)
end
