# Build file of the whole-system benchmark. perfbench/run.py configures the
# repository's own CMake project with
#   -DCMAKE_PROJECT_dcvalidate_INCLUDE=<this file>
# so the benchmark target is defined inside that project, next to the
# libraries it links, without any file of the repository naming it.
add_executable(dcv_perfbench
  ${CMAKE_CURRENT_LIST_DIR}/src/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/common.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/fabric_cold.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/fleet_warm.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/gate_mix.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/monitor_churn.cpp
)
set_target_properties(dcv_perfbench PROPERTIES
  CXX_STANDARD 20
  CXX_STANDARD_REQUIRED ON
  CXX_EXTENSIONS OFF
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)
target_compile_options(dcv_perfbench PRIVATE
  -Wall -Wextra -Wno-missing-field-initializers)
# Library targets are defined after project() returns; CMake resolves
# these names when it generates the build.
target_link_libraries(dcv_perfbench PRIVATE
  dcv_gate_svc dcv_dist dcv_secguru dcv_rcdc dcv_routing dcv_topology
  dcv_obs dcv_net Threads::Threads)
