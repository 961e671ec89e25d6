// Environment-variable helpers used by benches to pick reduced vs
// paper-scale configurations (e.g. DQMO_FULL=1, DQMO_TRAJECTORIES=200) and
// by the observability switches (metrics, recorder, tracer, SIMD tier,
// slow-read events). Engine settings are option fields, never variables.
#ifndef DQMO_COMMON_ENV_H_
#define DQMO_COMMON_ENV_H_

#include <cstdint>
#include <string>

namespace dqmo {

/// Returns the environment variable value or `fallback` when unset/empty.
std::string GetEnvString(const char* name, const std::string& fallback);

/// Parses the environment variable as int64; `fallback` on unset/garbage.
int64_t GetEnvInt(const char* name, int64_t fallback);

/// Parses the environment variable as double; `fallback` on unset/garbage.
double GetEnvDouble(const char* name, double fallback);

/// True when the variable is set to a truthy value ("1", "true", "yes").
bool GetEnvBool(const char* name, bool fallback);

}  // namespace dqmo

#endif  // DQMO_COMMON_ENV_H_
