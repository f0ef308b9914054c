"""Voice conversion toolkit.

Speech is parameterized frame by frame with linear prediction, the
predictor is carried as line spectral frequencies (the domain in which a
mapped filter can always be kept stable), a small feedforward network maps
source frames into a target voice's space, and the source residual drives
the mapped filters to produce converted audio.  Conversions are scored
with a cepstral-distortion style metric on the parameter tracks.
"""

from .align import DtwAlignment, StaleAlignmentError, dtw_align, pair_frames
from .eval import (ConversionReport, ZeroBaselineError, conversion_report,
                   mcd_frame, mcd_sequences)
from .lpc import (LpcFrame, LpcTrack, analyze_track, autocorrelate,
                  inverse_filter, levinson_durbin, lpc_poles, stable_rows,
                  synthesis_filter)
from .lsf import (LsfConversionError, lpc_to_lsf, lsf_to_lpc, rectify_lsf,
                  validate_lsf)
from .mlp import (MlpModel, ModelDimensionError, ModelFormatError,
                  ModelVersionError, TrainingDivergedError,
                  TrainReport, compute_gradients, forward, init_mlp,
                  load_model, save_model, train)
from .signal_io import (FrameSequence, Waveform, WavDataError,
                        WavFormatError, deemphasize, frame_signal,
                        gaussian_window, preemphasize, read_wav, write_wav)
from .testkit import (SyntheticSpeakerSpec, add_noise, build_corpus,
                      generate_excitation, generate_utterance_pair,
                      synthesize_utterance, utterance_pair_specs)

__version__ = "0.1.0"
