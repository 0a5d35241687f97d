/**
 * @file
 * Process stop-signal plumbing for the CLI tools: SIGINT/SIGTERM
 * handlers that trip a CancellationToken so long-running searches
 * degrade to best-so-far (and checkpoint on the way out) instead of
 * dying mid-run.
 *
 * The handler itself only performs async-signal-safe work: one atomic
 * store into the token, one atomic counter increment, one atomic
 * store of the signal number. The *second* stop signal restores the
 * default disposition and re-raises, so an operator's second Ctrl-C
 * kills a wedged process immediately with the conventional signal
 * exit status.
 */

#ifndef TILEFLOW_COMMON_SIGNALUTIL_HPP
#define TILEFLOW_COMMON_SIGNALUTIL_HPP

#include "common/stop.hpp"

namespace tileflow {

/**
 * Install SIGINT + SIGTERM handlers that cancel `token` (which must
 * outlive the handlers — in practice: main()'s stack or a global).
 * The first stop signal only cancels; a repeated one re-raises with
 * the default disposition (immediate death).
 *
 * Not reentrant: call once from the main thread before spawning
 * workers. Calling again replaces the token and forgets the signals
 * received so far.
 */
void installStopSignalHandlers(CancellationToken* token);

/** The most recent stop signal number (0 when none arrived). */
int lastStopSignal();

} // namespace tileflow

#endif // TILEFLOW_COMMON_SIGNALUTIL_HPP
