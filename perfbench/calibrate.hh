/**
 * @file
 * The host-speed calibration kernel. The benchmark's host shares its
 * physical cores with other tenants, and the simulator's speed follows
 * how busy they are: by ±15% from one second to the next and by up to
 * 50% from one stretch of minutes to the next. The simulator's hot
 * loops are throughput-bound, and so is this kernel, so both slow
 * alike; perfbench/run.py states every host time at the speed at which
 * this kernel takes a fixed time.
 *
 * The kernel is the benchmark's own code, built by its own target with
 * fixed flags and without the simulator, so no change to the simulator
 * or its build settings can change it.
 */

#ifndef SVR_PERFBENCH_CALIBRATE_HH
#define SVR_PERFBENCH_CALIBRATE_HH

namespace svrbench
{

/** Wall time, in ms, of the kernel: the lesser of two runs of about
 *  1.5 ms each on the 4-vCPU VM. */
double calibrationMs();

} // namespace svrbench

#endif // SVR_PERFBENCH_CALIBRATE_HH
