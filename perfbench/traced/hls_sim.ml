include Perfbench_probe.Real.Sim
module Span = Perfbench_probe.Span

module Behav = struct
  include Perfbench_probe.Real.Sim.Behav

  let run ?funcs ?nest d stim =
    Span.with_ "sim.behav" (fun () -> Perfbench_probe.Real.Sim.Behav.run ?funcs ?nest d stim)
end

module Schedule_sim = struct
  include Perfbench_probe.Real.Sim.Schedule_sim

  let run ?funcs ?max_iters e s stim =
    Span.with_ "sim.schedule" (fun () ->
        let r = Perfbench_probe.Real.Sim.Schedule_sim.run ?funcs ?max_iters e s stim in
        Span.count "sim.schedule_cycles" r.r_cycles;
        r)
end

module Kernel_sim = struct
  include Perfbench_probe.Real.Sim.Kernel_sim

  let run ?funcs ?max_iters ?max_cycles ?stall_pattern ?engine e s stim =
    Span.with_ "sim.kernel" (fun () ->
        let r =
          Perfbench_probe.Real.Sim.Kernel_sim.run ?funcs ?max_iters ?max_cycles ?stall_pattern
            ?engine e s stim
        in
        Span.count "sim.kernel_cycles" r.k_cycles;
        r)
end
