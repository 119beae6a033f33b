# Asserts cirrus_run rejects bad knobs with exit code 2 and an error naming
# the problem: an unknown platform name (the error lists every valid
# platform), malformed or out-of-range counts, a job that does not fit its
# platform, an NPB kernel at a rank count it cannot run, and bad `advise`
# flags. Driven from examples/CMakeLists.txt:
#   cmake -DBIN=<path-to-cirrus_run> -P unknown_platform_reject.cmake
if(NOT DEFINED BIN)
  message(FATAL_ERROR "unknown_platform_reject.cmake needs -DBIN=<binary>")
endif()

# expect_reject(<regex> <args>...): exit code 2 and output matching <regex>.
function(expect_reject match)
  execute_process(COMMAND ${BIN} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${ARGN}: expected exit code 2, got ${rc}:\n${out}${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "${match}")
    message(FATAL_ERROR "${ARGN}: error does not say '${match}':\n${out}${err}")
  endif()
endfunction()

execute_process(
  COMMAND ${BIN} npb --bench CG --class S --np 4 --platform azure
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)

if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--platform azure: expected exit code 2, got ${rc}:\n${out}${err}")
endif()
set(all "${out}${err}")
foreach(name vayu dcc ec2 vayu2020 ec2_2020)
  if(NOT all MATCHES "${name}")
    message(FATAL_ERROR "--platform azure: error does not list '${name}':\n${all}")
  endif()
endforeach()

# The osu mode routes through plat::by_name too: same contract. Its test is
# named by --bench, as in /query; there is no --test flag.
expect_reject("ec2_2020" osu --bench bw --platform azure)
expect_reject("unknown option --test" osu --test bw)
expect_reject("bench: bw\\|lat" osu --bench CG)
expect_reject("bench: bw\\|lat" osu --bench xyz)
# With no bench at all, the error must not quote npb's default kernel.
expect_reject("bench: bw\\|lat expected for osu" osu)
execute_process(COMMAND ${BIN} osu OUTPUT_VARIABLE out ERROR_VARIABLE err)
if("${out}${err}" MATCHES "CG")
  message(FATAL_ERROR "osu: error quotes a bench the caller never sent:\n${out}${err}")
endif()

# Counts: not a number, out of int range, below 1, trailing junk; ranks per
# node below -1 or not a number; more ranks than the platform holds.
expect_reject("np:" metum --np abc)
expect_reject("np:" metum --np 99999999999)
expect_reject("np:" chaste --np 0)
expect_reject("np:" chaste --np -3)
expect_reject("np:" chaste --np 8x)
expect_reject("ec2_2020" chaste --platform azure)
expect_reject("rpn:" metum --platform ec2 --np 32 --rpn x)
expect_reject("rpn:" metum --platform ec2 --np 32 --rpn -2)
expect_reject("does not fit.*at most" metum --np 20000)

# NPB's power-of-two kernels at np=3, in model mode.
expect_reject("CG requires a power-of-two np" npb --bench CG --class S --np 3)
expect_reject("MG requires power-of-two np" npb --bench MG --class S --np 3)

# advise: /advise's keys and values, through the same parser.
expect_reject("unknown key 'frobnicate'" advise --frobnicate 1)
expect_reject("unknown key 'class'" advise --class B)
expect_reject("bench:" advise --bench XX)
expect_reject("np:" advise --np 99999999999)
expect_reject("np:" advise --np 0)
expect_reject("np:" advise --np)
expect_reject("queue_wait_hours:" advise --queue_wait_hours -1)
expect_reject("queue_wait_hours:" advise --queue_wait_hours nan)
expect_reject("seed:" advise --seed -1)
expect_reject("CG requires a power-of-two np" advise --bench cg --np 3)
expect_reject("does not fit.*at most" advise --np 20000)
