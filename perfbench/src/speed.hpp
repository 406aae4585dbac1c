// Machine-speed calibration. On the shared host the benchmark runs on, each
// CPU's speed changes by up to 1.9x for seconds at a time, independently of
// the other CPUs (a fixed single-threaded kernel, measured on 4-vCPU KVM
// guests: per-second medians from 0.68 to 1.24 ms on one CPU while another
// read the opposite), and a whole run can sit in a slow stretch. So a run is
// pinned to one CPU, and a fixed compute kernel, written here and not in
// src/ so that no change to the library moves it, is timed on that CPU
// between every two measured phases. Each phase's timing is divided by its
// slowdown: the kernel's time around it over the kernel's time on the
// reference machine. A program change moves the timings and not the kernel,
// so it shows; a slow stretch of the CPU moves both.
#pragma once

#include <cstdint>

namespace perfbench {

/// The kernel's fastest trial time on the reference machine (4-vCPU Intel
/// Xeon, Sapphire Rapids, KVM guest), ns.
inline constexpr double kReferenceKernelNs = 150'000.0;

/// Fastest of a few trials of the kernel, now, on the calling thread, ns.
double kernel_ns();

/// Pins the calling thread, and every thread it starts afterwards, to one
/// CPU the process may use (the highest-numbered), so that the kernel runs
/// on the CPU the measured work runs on.
void pin_to_one_cpu();

/// Speed factor for a phase timed between two kernel_ns() readings: their
/// mean over kReferenceKernelNs (above 1 when the machine runs slower than
/// the reference).
inline double slowdown(double before_ns, double after_ns) {
  return (before_ns + after_ns) / (2.0 * kReferenceKernelNs);
}

}  // namespace perfbench
